//! Aggregate functions: COUNT / SUM / AVG / MIN / MAX, with DISTINCT, and
//! the GROUP BY operator over them.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use crate::error::{Error, Result};
use crate::plan::AggSpec;
use crate::value::{Row, Value};

use super::expr::BoundExpr;
use super::fasthash::FastBuild;
use super::keys::{Key, KeyCoder};

/// Which aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFn {
    /// Parse a function name used in aggregate position. `star` selects
    /// `COUNT(*)`.
    pub fn parse(name: &str, star: bool) -> Result<AggFn> {
        let up = name.to_ascii_uppercase();
        if star {
            return if up == "COUNT" {
                Ok(AggFn::CountStar)
            } else {
                Err(Error::plan(format!("`{name}(*)` is not a valid aggregate")))
            };
        }
        match up.as_str() {
            "COUNT" => Ok(AggFn::Count),
            "SUM" => Ok(AggFn::Sum),
            "AVG" => Ok(AggFn::Avg),
            "MIN" => Ok(AggFn::Min),
            "MAX" => Ok(AggFn::Max),
            _ => Err(Error::plan(format!("unknown aggregate `{name}`"))),
        }
    }
}

/// Incremental accumulator for one aggregate over one group.
#[derive(Debug)]
pub struct Accumulator {
    func: AggFn,
    distinct: bool,
    seen: HashSet<Value>,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    saw_float: bool,
    extremum: Option<Value>,
}

impl Accumulator {
    pub fn new(func: AggFn, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: HashSet::new(),
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            extremum: None,
        }
    }

    /// Feed one input value. For `COUNT(*)` pass `Value::Bool(true)` (any
    /// non-NULL value); SQL NULLs are ignored by all aggregates except
    /// `COUNT(*)`, whose input here is never NULL.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if self.func != AggFn::CountStar && v.is_null() {
            return Ok(());
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        match self.func {
            AggFn::CountStar | AggFn::Count => self.count += 1,
            AggFn::Sum | AggFn::Avg => {
                self.count += 1;
                match v {
                    Value::Int(i) => self.sum_i = self.sum_i.wrapping_add(*i),
                    Value::Float(f) => {
                        self.saw_float = true;
                        self.sum_f += f;
                    }
                    other => {
                        return Err(Error::eval(format!(
                            "cannot aggregate non-numeric value {other}"
                        )))
                    }
                }
            }
            AggFn::Min => {
                let replace = match &self.extremum {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                };
                if replace {
                    self.extremum = Some(v.clone());
                }
            }
            AggFn::Max => {
                let replace = match &self.extremum {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                };
                if replace {
                    self.extremum = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Final aggregate value. Empty-input semantics follow SQL: COUNT → 0,
    /// everything else → NULL.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFn::CountStar | AggFn::Count => Value::Int(self.count),
            AggFn::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum_f + self.sum_i as f64)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float((self.sum_f + self.sum_i as f64) / self.count as f64)
                }
            }
            AggFn::Min | AggFn::Max => self.extremum.clone().unwrap_or(Value::Null),
        }
    }
}

/// Drain `child` and aggregate it (first-seen group order, one row for a
/// global aggregate over empty input). The group index is keyed by coded
/// keys; a group's key values are cloned out of their expressions once,
/// by the row that opens the group, and aggregate arguments are read by
/// reference.
pub(super) fn aggregate_rows(
    child: impl Iterator<Item = Result<Row>>,
    group: &[BoundExpr],
    aggs: &[AggSpec],
) -> Result<Vec<Row>> {
    let new_accs = || {
        aggs.iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect::<Vec<_>>()
    };
    let mut coder = KeyCoder::new(group.len());
    let mut index: HashMap<Key, usize, FastBuild> = HashMap::default();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    for row in child {
        let row = row?;
        let gi = match index.entry(coder.key(group.iter().map(|g| g.eval_ref(&row)))?) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let key_vals = group.iter().map(|g| g.eval(&row)).collect::<Result<_>>()?;
                groups.push((key_vals, new_accs()));
                *e.insert(groups.len() - 1)
            }
        };
        for (a, acc) in aggs.iter().zip(groups[gi].1.iter_mut()) {
            match &a.arg {
                Some(e) => acc.update(e.eval_ref(&row)?.as_ref())?,
                None => acc.update(&Value::Bool(true))?, // COUNT(*)
            }
        }
    }
    if groups.is_empty() && group.is_empty() {
        groups.push((Vec::new(), new_accs()));
    }
    Ok(groups
        .into_iter()
        .map(|(mut keys, accs)| {
            keys.extend(accs.iter().map(|a| a.finish()));
            keys
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFn, distinct: bool, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func, distinct);
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_ignores_nulls() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggFn::Count, false, &vals), Value::Int(2));
    }

    #[test]
    fn count_star_counts_everything() {
        let mut acc = Accumulator::new(AggFn::CountStar, false);
        for _ in 0..5 {
            acc.update(&Value::Bool(true)).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int(5));
    }

    #[test]
    fn sum_int_stays_int_sum_mixed_floats() {
        let ints = vec![Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFn::Sum, false, &ints), Value::Int(3));
        let mixed = vec![Value::Int(1), Value::Float(0.5)];
        assert_eq!(run(AggFn::Sum, false, &mixed), Value::Float(1.5));
    }

    #[test]
    fn avg_is_float() {
        let vals = vec![Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFn::Avg, false, &vals), Value::Float(1.5));
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFn::Count, false, &[]), Value::Int(0));
        assert_eq!(run(AggFn::Sum, false, &[]), Value::Null);
        assert_eq!(run(AggFn::Avg, false, &[]), Value::Null);
        assert_eq!(run(AggFn::Min, false, &[]), Value::Null);
    }

    #[test]
    fn min_max_strings() {
        let vals = vec![Value::from("pb"), Value::from("as"), Value::from("hg")];
        assert_eq!(run(AggFn::Min, false, &vals), Value::from("as"));
        assert_eq!(run(AggFn::Max, false, &vals), Value::from("pb"));
    }

    #[test]
    fn distinct_dedupes() {
        let vals = vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(AggFn::Count, true, &vals), Value::Int(2));
        assert_eq!(run(AggFn::Sum, true, &vals), Value::Int(3));
    }

    #[test]
    fn sum_of_strings_is_error() {
        let mut acc = Accumulator::new(AggFn::Sum, false);
        assert!(acc.update(&Value::from("x")).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFn::parse("count", true).unwrap(), AggFn::CountStar);
        assert_eq!(AggFn::parse("SUM", false).unwrap(), AggFn::Sum);
        assert!(AggFn::parse("sum", true).is_err());
        assert!(AggFn::parse("median", false).is_err());
    }
}
