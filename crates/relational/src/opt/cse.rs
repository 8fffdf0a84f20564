//! Common-subplan elimination: structurally equal subtrees become one
//! shared, spooled subtree.
//!
//! Every subtree gets a *fingerprint* — a canonical string that two
//! subtrees share iff they produce the same rows: base tables compare by
//! heap identity (`Arc` pointer), bound expressions by their (index-
//! resolved, deterministic) debug rendering, and schemas are deliberately
//! excluded where they only carry output *names* (two scans of one table
//! under different aliases yield identical rows). A fingerprint seen more
//! than once is rewritten to a [`Plan::Shared`] spool: the subtree is
//! evaluated once per execution against one pinned snapshot, and its rows
//! replay to every consumer, or, for a bare scan leaf, every consumer
//! reads the one pinned snapshot in place (see `exec/stream.rs`).
//!
//! The paper's `include_self` enrichment (`Q1 UNION Q2`) is the motivating
//! shape: both members scan (and often join) the same base tables, and
//! before this pass the compound simply ran the duplicated work twice.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use crate::plan::Plan;

/// Rewrite subtrees that occur more than once into shared spools.
pub fn share_common_subplans(plan: Plan, notes: &mut Vec<String>) -> Plan {
    let mut counter = Counter::default();
    counter.count(&plan);
    let shared_keys: std::collections::HashSet<String> = counter
        .counts
        .iter()
        .filter(|(_, &n)| n >= 2)
        .map(|(k, _)| k.clone())
        .collect();
    if shared_keys.is_empty() {
        return plan;
    }
    let mut rw = Rewriter {
        shared_keys,
        spools: HashMap::new(),
        next_id: 0,
        refs: 0,
        uniq: 0,
    };
    let out = rw.rewrite(plan);
    // Top-down dedup can swallow an inner duplicate entirely (two equal
    // `Limit(Scan)` members collapse into one spool, leaving their inner
    // `Scan` spool with a single reader); a spool nobody shares is pure
    // overhead, so inline those back.
    let (out, spools, refs) = prune_single_reader_spools(out);
    if spools > 0 {
        notes.push(format!(
            "cse: {spools} shared subtree(s) spooled ({refs} reference(s))"
        ));
    }
    out
}

/// Count how many `Shared` references each spool id has in the final plan
/// (each spool's input subtree is visited once, matching execution), then
/// rebuild the plan with single-reference spools inlined. Returns the
/// rebuilt plan plus the surviving spool and reference counts.
fn prune_single_reader_spools(plan: Plan) -> (Plan, usize, usize) {
    fn count(plan: &Plan, refs: &mut HashMap<usize, usize>) {
        if let Plan::Shared { id, input } = plan {
            let n = refs.entry(*id).or_insert(0);
            *n += 1;
            if *n == 1 {
                count(input, refs);
            }
            return;
        }
        plan.visit_children(&mut |c| count(c, refs));
    }
    let mut refs = HashMap::new();
    count(&plan, &mut refs);
    if refs.is_empty() {
        return (plan, 0, 0);
    }

    struct Pruner<'r> {
        refs: &'r HashMap<usize, usize>,
        rebuilt: HashMap<usize, Arc<Plan>>,
    }
    impl Pruner<'_> {
        fn rebuild(&mut self, plan: Plan) -> Plan {
            if let Plan::Shared { id, input } = plan {
                if self.refs.get(&id).copied().unwrap_or(0) <= 1 {
                    return self.rebuild((*input).clone());
                }
                let input = match self.rebuilt.get(&id) {
                    Some(a) => Arc::clone(a),
                    None => {
                        let a = Arc::new(self.rebuild((*input).clone()));
                        self.rebuilt.insert(id, Arc::clone(&a));
                        a
                    }
                };
                return Plan::Shared { id, input };
            }
            map_children_owned(plan, &mut |c| self.rebuild(c))
        }
    }
    let mut pruner = Pruner { refs: &refs, rebuilt: HashMap::new() };
    let out = pruner.rebuild(plan);
    let spools = refs.values().filter(|&&n| n >= 2).count();
    let shared_refs: usize = refs.values().filter(|&&n| n >= 2).sum();
    (out, spools, shared_refs)
}

/// The fingerprint of `plan`, equal for two subtrees exactly when this
/// pass would share them; `None` when the subtree holds a node the pass
/// never shares (literal rows, an existing spool).
pub(crate) fn fingerprint_of(plan: &Plan) -> Option<String> {
    let mut counter = Counter::default();
    let key = counter.count(plan);
    (counter.uniq == 0).then_some(key)
}

/// First walk: count subtree fingerprints.
#[derive(Default)]
struct Counter {
    counts: HashMap<String, usize>,
    /// Distinguishes unshareable nodes (each gets a unique fingerprint,
    /// which also keeps their ancestors from ever matching each other).
    uniq: usize,
}

impl Counter {
    fn count(&mut self, plan: &Plan) -> String {
        let key = match plan {
            Plan::Values { .. } | Plan::Shared { .. } => {
                // Values are trivial to recompute (sharing would only add
                // spool overhead); an existing Shared node is already the
                // product of this pass.
                self.uniq += 1;
                return format!("uniq({})", self.uniq);
            }
            other => {
                let mut children = Vec::new();
                other.visit_children(&mut |c| children.push(self.count(c)));
                fingerprint(other, &children)
            }
        };
        *self.counts.entry(key.clone()).or_insert(0) += 1;
        key
    }
}

/// Second walk: replace shared subtrees top-down. The first occurrence of
/// a fingerprint builds the spooled subtree (its *inner* duplicates are
/// rewritten too, so a scan shared both inside and outside a spooled
/// subtree still resolves to one spool); later occurrences reuse the same
/// `Arc`.
struct Rewriter {
    shared_keys: std::collections::HashSet<String>,
    spools: HashMap<String, (usize, Arc<Plan>)>,
    next_id: usize,
    refs: usize,
    uniq: usize,
}

impl Rewriter {
    fn rewrite(&mut self, plan: Plan) -> Plan {
        let key = self.key_of(&plan);
        if self.shared_keys.contains(&key) {
            self.refs += 1;
            if let Some((id, input)) = self.spools.get(&key) {
                return Plan::Shared { id: *id, input: Arc::clone(input) };
            }
            let id = self.next_id;
            self.next_id += 1;
            let inner = map_children_owned(plan, &mut |c| self.rewrite(c));
            let input = Arc::new(inner);
            self.spools.insert(key, (id, Arc::clone(&input)));
            return Plan::Shared { id, input };
        }
        map_children_owned(plan, &mut |c| self.rewrite(c))
    }

    /// Fingerprint used during rewriting; must agree with the counting
    /// walk (same traversal, same rendering).
    fn key_of(&mut self, plan: &Plan) -> String {
        match plan {
            Plan::Values { .. } | Plan::Shared { .. } => {
                self.uniq += 1;
                format!("rw-uniq({})", self.uniq)
            }
            other => {
                let mut children = Vec::new();
                other.visit_children(&mut |c| {
                    let k = self.key_of(c);
                    children.push(k);
                });
                fingerprint(other, &children)
            }
        }
    }
}

fn map_children_owned(plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    super::map_children(plan, f)
}

/// Canonical rendering of one node given its children's fingerprints.
/// Bound expressions render via `Debug` — they are index-resolved, so the
/// rendering is deterministic and alias-free; base tables render by heap
/// identity so two catalogs' same-named tables never unify.
fn fingerprint(plan: &Plan, children: &[String]) -> String {
    let mut s = String::new();
    match plan {
        Plan::Scan { table, .. } => {
            let _ = write!(s, "scan({:p})", Arc::as_ptr(table));
        }
        Plan::IndexScan { table, column, lookup, .. } => {
            let _ = write!(s, "idxscan({:p},{column},{lookup:?})", Arc::as_ptr(table));
        }
        Plan::ForeignScan { table, pushed, .. } => {
            let _ = write!(s, "fscan({:p},{pushed:?})", Arc::as_ptr(table));
        }
        Plan::Filter { predicate, .. } => {
            let _ = write!(s, "filter({},{predicate:?})", children[0]);
        }
        Plan::Project { exprs, .. } => {
            let _ = write!(s, "project({},{exprs:?})", children[0]);
        }
        Plan::NestedLoopJoin { kind, predicate, .. } => {
            let _ = write!(
                s,
                "nlj({},{},{kind:?},{predicate:?})",
                children[0], children[1]
            );
        }
        Plan::HashJoin { kind, left_keys, right_keys, residual, .. } => {
            let _ = write!(
                s,
                "hj({},{},{kind:?},{left_keys:?},{right_keys:?},{residual:?})",
                children[0], children[1]
            );
        }
        Plan::Aggregate { group, aggs, .. } => {
            let _ = write!(s, "agg({},{group:?},{aggs:?})", children[0]);
        }
        Plan::Sort { keys, .. } => {
            let _ = write!(s, "sort({},{keys:?})", children[0]);
        }
        Plan::Distinct { .. } => {
            let _ = write!(s, "distinct({})", children[0]);
        }
        Plan::Limit { limit, offset, .. } => {
            let _ = write!(s, "limit({},{limit:?},{offset})", children[0]);
        }
        Plan::Union { all, .. } => {
            let _ = write!(s, "union({},{all})", children.join(","));
        }
        Plan::Bind { .. } => {
            let _ = write!(s, "bind({})", children[0]);
        }
        Plan::Values { .. } | Plan::Shared { .. } => {
            unreachable!("handled by the callers' uniq arm")
        }
    }
    s
}
