//! The benchmark's contract, read from the root `BENCHMARK.json` at
//! compile time: workload names, metric names, units and regression
//! bounds live there and nowhere else, so the program can never print a
//! metric the contract does not name (or the other way round).
//!
//! Hand-rolled extraction like the rest of the repo's JSON handling: the
//! file keeps one object per line, and [`field`] pulls one key out of a
//! line.

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The value of `"key": ...` on `line`: a string's contents, or the raw
/// token of a number.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tagged = format!("\"{key}\":");
    let rest = line[line.find(&tagged)? + tagged.len()..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The lines of the array stored under top-level `key`.
fn section(key: &str) -> impl Iterator<Item = &'static str> {
    let tagged = format!("\"{key}\": [");
    BENCHMARK_JSON
        .lines()
        .skip_while(move |l| !l.contains(&tagged))
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
}

/// A malformed entry is skipped here and caught where it matters: a run
/// refuses to report when its metrics are not exactly the contract's, and
/// `contract_is_well_formed` checks the file itself.
fn metrics(key: &str) -> Vec<MetricSpec> {
    section(key)
        .filter_map(|line| {
            Some(MetricSpec {
                name: field(line, "name")?.to_string(),
                unit: field(line, "unit")?.to_string(),
                higher_is_better: field(line, "better")? == "higher",
                bound: field(line, "bound").and_then(|b| b.parse().ok()),
            })
        })
        .collect()
}

pub fn end_to_end() -> Vec<MetricSpec> {
    metrics("end_to_end")
}

pub fn per_layer() -> Vec<MetricSpec> {
    metrics("per_layer")
}

pub fn workload_names() -> Vec<String> {
    section("workloads")
        .filter_map(|l| field(l, "name"))
        .map(str::to_string)
        .collect()
}

pub fn run_seconds() -> Option<f64> {
    BENCHMARK_JSON
        .lines()
        .find_map(|l| field(l, "run_seconds"))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_strings_and_numbers() {
        let line = r#"    {"name": "qps", "unit": "ops/s", "better": "higher", "bound": 0.1},"#;
        assert_eq!(field(line, "name"), Some("qps"));
        assert_eq!(field(line, "unit"), Some("ops/s"));
        assert_eq!(field(line, "bound"), Some("0.1"));
        assert_eq!(field(line, "absent"), None);
    }

    #[test]
    fn contract_is_well_formed() {
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
        assert_eq!(workload_names().len(), 4);
        assert!(run_seconds().is_some_and(|s| (1.0..=60.0).contains(&s) && s.fract() == 0.0));
        assert_eq!(e2e.len(), 5);
        assert_eq!(per_layer().len(), 49);
        let mut names: Vec<String> = e2e
            .iter()
            .chain(per_layer().iter())
            .map(|m| m.name.clone())
            .collect();
        names.extend(workload_names());
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
