//! Workload definitions: the statement catalogs and the seeded operation
//! generators. The engine sees only the generated statements.
//!
//! The databank is a fixed dataset (the generator's default seed, like a
//! fixed scale factor): Ex. 4.6's result size moves by more than a tenth
//! between databank seeds, which would drown every bound. `--seed` drives
//! everything drawn during a run — hot sets, parameter draws, write
//! payloads. A fixed databank also lets one golden file cover every
//! statement any seed can draw.

use crosse_rdf::store::Triple;
use crosse_rdf::term::Term;
use crosse_smartground::{landfill_name, paper_examples};

pub const USER: &str = "director";
/// Databank scale of the three enrichment workloads.
pub const ENRICH_LANDFILLS: usize = 200;
/// Databank scale of `wire-scan` (19 716 `elem_contained` rows).
pub const WIRE_LANDFILLS: usize = 3_000;
/// `enrich-point` draws its landfill from a hot set of this size.
const HOT_SET: usize = 64;
/// Crowd statements kept live in `live-mix`: an assert beyond this many
/// retracts the oldest.
pub const LIVE_CROWD_STATEMENTS: usize = 64;
/// Distinct crowd statements a `live-mix` stream cycles through.
const CROWD_POOL: u64 = 2 * LIVE_CROWD_STATEMENTS as u64;
/// Rows per `INSERT INTO analysis` in `live-mix`.
pub const INSERT_ROWS: usize = 64;
/// Benchmark-inserted analysis rows start here, clear of the databank's.
pub const FIRST_BENCH_ID: i64 = 1_000_000;

/// Insert batches kept live in `live-mix`: an insert beyond this many
/// deletes the oldest, and a read-back aggregates the live ones.
pub const READBACK_BATCHES: usize = 8;

/// The aggregate read-back over benchmark rows from `from_id` on.
pub fn readback_sql(from_id: i64) -> String {
    format!("SELECT COUNT(*) AS n, SUM(year) AS s FROM analysis WHERE id >= {from_id}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnrichPoint,
    EnrichJoin,
    LiveMix,
    WireScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EnrichPoint,
        Workload::EnrichJoin,
        Workload::LiveMix,
        Workload::WireScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnrichPoint => "enrich-point",
            Workload::EnrichJoin => "enrich-join",
            Workload::LiveMix => "live-mix",
            Workload::WireScan => "wire-scan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn landfills(self) -> usize {
        match self {
            Workload::WireScan => WIRE_LANDFILLS,
            _ => ENRICH_LANDFILLS,
        }
    }

    /// Closed-loop clients: one in process, or one wire client per core.
    pub fn clients(self) -> usize {
        match self {
            Workload::WireScan => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }

    /// Secondary indexes the set-up creates. The interactive workloads run
    /// on the physical design an analyst-facing deployment would have —
    /// the two lookup columns of `elem_contained`, and `analysis.id` for
    /// the read-back — so that point queries spend their time in the
    /// enrichment pipeline and not in full scans of a 1 306-row table.
    pub fn indexes(self) -> &'static [(&'static str, &'static str)] {
        const LOOKUPS: [(&str, &str); 3] = [
            ("elem_contained", "landfill_name"),
            ("elem_contained", "elem_name"),
            ("analysis", "id"),
        ];
        match self {
            Workload::EnrichPoint => &LOOKUPS[..2],
            Workload::LiveMix => &LOOKUPS,
            Workload::EnrichJoin | Workload::WireScan => &[],
        }
    }

    /// Operations per second of budget in a traced run. A traced run does
    /// a fixed amount of work, so that its counts repeat exactly; this
    /// sizes it to about one measured round on the 2-core reference host.
    pub fn traced_ops_per_second(self) -> u64 {
        match self {
            Workload::EnrichPoint => 1_000,
            Workload::EnrichJoin => 4,
            Workload::LiveMix => 800,
            Workload::WireScan => 50,
        }
    }

    /// An untraced run keeps the latency of one operation in this many.
    /// The sample store is the harness's memory, and `peak_rss_mb` is gated:
    /// at thousands of operations a second, keeping every latency would
    /// charge a faster engine for the samples it let the harness take. 7 is
    /// coprime to the 5-template rotation and the 16-op cycle, so every
    /// operation type is sampled alike.
    pub fn latency_stride(self) -> u64 {
        match self {
            Workload::EnrichPoint | Workload::LiveMix => 7,
            Workload::EnrichJoin | Workload::WireScan => 1,
        }
    }

    /// One traced op in this many also runs the direct-call probes.
    pub fn probe_stride(self) -> u64 {
        match self {
            Workload::EnrichPoint | Workload::LiveMix => 4,
            Workload::EnrichJoin | Workload::WireScan => 1,
        }
    }
}

/// One read statement: the text the system under test runs, and the plain
/// SQL a direct `Database::query` probe runs for the same input.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Stable name, the key of the golden file.
    pub key: String,
    pub text: String,
    pub baseline_sql: String,
}

/// Catalog slots of the enrichment workloads.
const POINT_TEMPLATES: usize = 5;
const JOIN_SLOT: usize = 2 * ENRICH_LANDFILLS + 3;
const RESTRICTED_BASE: usize = JOIN_SLOT + 1;

/// Slot of Ex. 4.1–4.5 (`template` 0..5) for landfill `lf`. Ex. 4.1 and
/// 4.3 take the landfill as a parameter; the others have one text.
fn point_slot(template: usize, lf: usize) -> usize {
    match template {
        0 => lf,
        2 => ENRICH_LANDFILLS + lf,
        1 => 2 * ENRICH_LANDFILLS,
        3 => 2 * ENRICH_LANDFILLS + 1,
        _ => 2 * ENRICH_LANDFILLS + 2,
    }
}

/// Every statement the enrichment workloads can draw.
pub fn enrich_catalog() -> Vec<Stmt> {
    let per_landfill: Vec<_> = (0..ENRICH_LANDFILLS)
        .map(|lf| paper_examples(&landfill_name(lf)))
        .collect();
    let stmt = |lf: usize, example: usize, with_lf: bool| {
        let q = &per_landfill[lf][example];
        let short = q.name.split('-').next().unwrap_or(q.name);
        Stmt {
            key: if with_lf {
                format!("{short}:{}", landfill_name(lf))
            } else {
                short.to_string()
            },
            text: q.sesql.clone(),
            baseline_sql: q.baseline_sql.clone(),
        }
    };
    let mut out: Vec<Stmt> = (0..ENRICH_LANDFILLS).map(|lf| stmt(lf, 0, true)).collect();
    out.extend((0..ENRICH_LANDFILLS).map(|lf| stmt(lf, 2, true)));
    out.extend([1, 3, 4, 5].map(|example| stmt(0, example, false)));
    // Ex. 4.6 restricted to one landfill: the REPLACEVARIABLE path (pairs
    // table and all) at interactive size.
    out.extend((0..ENRICH_LANDFILLS).map(|lf| {
        let name = landfill_name(lf);
        let shape = |cond: &str| {
            format!(
                "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                 e1.landfill_name = '{name}' AND {cond}"
            )
        };
        Stmt {
            key: format!("ex4.6r:{name}"),
            text: format!(
                "{} ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)",
                shape("${ e1.elem_name = e2.elem_name :cond1}")
            ),
            baseline_sql: shape("e1.elem_name = e2.elem_name"),
        }
    }));
    debug_assert_eq!(out.len(), RESTRICTED_BASE + ENRICH_LANDFILLS);
    out
}

/// The `amount >` constants each scan template draws from.
const SCAN_CONSTANTS: [[u32; 8]; 3] = [
    [2000, 2250, 2500, 2750, 3000, 3250, 3500, 3750],
    [50, 100, 150, 200, 250, 300, 350, 400],
    [2600, 2800, 3000, 3200, 3400, 3600, 3800, 4000],
];

/// e11's filter / grouped-aggregate / hash-join mix, one statement per
/// (template, constant).
pub fn scan_catalog() -> Vec<Stmt> {
    let mut out = Vec::new();
    for (template, constants) in SCAN_CONSTANTS.iter().enumerate() {
        for c in constants {
            let (kind, sql) = match template {
                0 => (
                    "filter",
                    format!("SELECT elem_name, amount FROM elem_contained WHERE amount > {c}.0"),
                ),
                1 => (
                    "agg",
                    format!(
                        "SELECT landfill_name, COUNT(*), SUM(amount) FROM elem_contained \
                         WHERE amount > {c}.0 GROUP BY landfill_name"
                    ),
                ),
                _ => (
                    "join",
                    format!(
                        "SELECT e.elem_name, l.city FROM elem_contained e \
                         JOIN landfill l ON e.landfill_name = l.name WHERE e.amount > {c}.0"
                    ),
                ),
            };
            out.push(Stmt {
                key: format!("scan.{kind}:{c}"),
                text: sql.clone(),
                baseline_sql: sql,
            });
        }
    }
    out
}

pub fn catalog(workload: Workload) -> Vec<Stmt> {
    match workload {
        Workload::WireScan => scan_catalog(),
        _ => enrich_catalog(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Query,
    Assert,
    Insert,
    Readback,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [
        OpKind::Query,
        OpKind::Assert,
        OpKind::Insert,
        OpKind::Readback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Assert => "assert",
            OpKind::Insert => "insert",
            OpKind::Readback => "readback",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run catalog statement `.0` and check its result.
    Query(usize),
    /// A crowd user's `KnowledgeBase::assert_statement`.
    Assert(Triple),
    /// One multi-row `INSERT INTO analysis` with ids from `first_id`;
    /// `year_sum` is what the rows add to the read-back's `SUM(year)`.
    Insert {
        sql: String,
        first_id: i64,
        year_sum: i64,
    },
    /// The aggregate over the live insert batches.
    Readback,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Query(_) => OpKind::Query,
            Op::Assert(_) => OpKind::Assert,
            Op::Insert { .. } => OpKind::Insert,
            Op::Readback => OpKind::Readback,
        }
    }
}

/// SplitMix64: the whole op stream hangs off one `u64`.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `live-mix`'s repeating 16-op cycle: 11 point queries, 1 restricted
/// REPLACEVARIABLE query, 2 crowd asserts, 1 insert, 1 read-back.
#[derive(Clone, Copy)]
enum Slot {
    Point,
    Restricted,
    Assert,
    Insert,
    Readback,
}

const LIVE_CYCLE: [Slot; 16] = [
    Slot::Point,
    Slot::Point,
    Slot::Assert,
    Slot::Point,
    Slot::Point,
    Slot::Restricted,
    Slot::Point,
    Slot::Insert,
    Slot::Point,
    Slot::Point,
    Slot::Assert,
    Slot::Point,
    Slot::Point,
    Slot::Readback,
    Slot::Point,
    Slot::Point,
];

/// The seeded operation stream of one client.
#[derive(Debug, Clone)]
pub struct OpGen {
    workload: Workload,
    seed: u64,
    rng: Rng,
    issued: u64,
    points: usize,
    /// `enrich-point`: the hot landfills and the Zipf(1.0) CDF over them.
    hot: Vec<usize>,
    zipf_cdf: Vec<f64>,
    asserts: u64,
    next_row_id: i64,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> OpGen {
        let mut rng = Rng(seed ^ (client as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut pool: Vec<usize> = (0..ENRICH_LANDFILLS).collect();
        for i in 0..HOT_SET {
            let j = i + rng.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(HOT_SET);
        let weights: Vec<f64> = (1..=HOT_SET).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        OpGen {
            workload,
            seed,
            rng,
            issued: 0,
            points: 0,
            hot: pool,
            zipf_cdf,
            asserts: 0,
            next_row_id: FIRST_BENCH_ID,
        }
    }

    /// Catalog slots this stream can draw — what the warm-up round runs
    /// and verifies before anything is timed.
    pub fn statements_in_use(&self) -> Vec<usize> {
        match self.workload {
            Workload::EnrichPoint => {
                let mut slots: Vec<usize> = self
                    .hot
                    .iter()
                    .flat_map(|&lf| (0..POINT_TEMPLATES).map(move |t| point_slot(t, lf)))
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                slots
            }
            Workload::EnrichJoin => vec![JOIN_SLOT],
            Workload::LiveMix => (0..JOIN_SLOT)
                .chain(RESTRICTED_BASE..RESTRICTED_BASE + ENRICH_LANDFILLS)
                .collect(),
            Workload::WireScan => (0..SCAN_CONSTANTS.len() * 8).collect(),
        }
    }

    /// The next point query: Ex. 4.1–4.5 in rotation.
    fn point(&mut self, lf: usize) -> Op {
        let template = self.points % POINT_TEMPLATES;
        self.points += 1;
        Op::Query(point_slot(template, lf))
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::EnrichPoint => {
                let u = self.rng.unit();
                let rank = self.zipf_cdf.partition_point(|&c| c < u).min(HOT_SET - 1);
                let lf = self.hot[rank];
                self.point(lf)
            }
            Workload::EnrichJoin => Op::Query(JOIN_SLOT),
            Workload::LiveMix => match LIVE_CYCLE[(i % LIVE_CYCLE.len() as u64) as usize] {
                Slot::Point => {
                    let lf = self.rng.below(ENRICH_LANDFILLS);
                    self.point(lf)
                }
                Slot::Restricted => Op::Query(RESTRICTED_BASE + self.rng.below(ENRICH_LANDFILLS)),
                Slot::Assert => self.assert_op(),
                Slot::Insert => self.insert_op(),
                Slot::Readback => Op::Readback,
            },
            Workload::WireScan => {
                let template = (i % SCAN_CONSTANTS.len() as u64) as usize;
                Op::Query(template * 8 + self.rng.below(8))
            }
        }
    }

    /// A statement no query reads (own subjects, own predicate): it bumps
    /// the KB version — invalidating every cached leg and pairs table —
    /// without changing any enrichment result, so the golden digests hold
    /// while writes land. Statements cycle through a seeded pool twice the
    /// live set's size: the engine keeps a retracted statement's
    /// reification, so fresh subjects for ever would grow its memory with
    /// the operation count; re-asserting a retracted statement writes the
    /// direct triple and the authorship edge again and grows nothing.
    fn assert_op(&mut self) -> Op {
        let k = self.asserts % CROWD_POOL;
        self.asserts += 1;
        Op::Assert(Triple::new(
            Term::iri(format!("Crowd{}n{k}", self.seed)),
            Term::iri("crowdNote"),
            Term::lit((k % 5 + 1).to_string()),
        ))
    }

    fn insert_op(&mut self) -> Op {
        let (first_id, mut year_sum) = (self.next_row_id, 0);
        let rows: Vec<String> = (0..INSERT_ROWS)
            .map(|_| {
                let id = self.next_row_id;
                self.next_row_id += 1;
                let year = 2018 + self.rng.below(8) as i64;
                year_sum += year;
                format!(
                    "({id}, '{}', 'Lab{:03}', 'Fe', {}.5, {year}, 'Crowd{:03}')",
                    landfill_name(self.rng.below(ENRICH_LANDFILLS)),
                    self.rng.below(8),
                    self.rng.below(900),
                    self.rng.below(24),
                )
            })
            .collect();
        let sql = format!("INSERT INTO analysis VALUES {}", rows.join(", "));
        Op::Insert {
            sql,
            first_id,
            year_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut gen = OpGen::new(workload, seed, client);
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in [Workload::EnrichPoint, Workload::LiveMix, Workload::WireScan] {
            assert_eq!(stream(w, 42, 0, 400), stream(w, 42, 0, 400), "{}", w.name());
            assert_ne!(stream(w, 42, 0, 400), stream(w, 43, 0, 400), "{}", w.name());
        }
        // Two wire clients replay different streams of the same seed.
        assert_ne!(
            stream(Workload::WireScan, 42, 0, 64),
            stream(Workload::WireScan, 42, 1, 64)
        );
        // Ex. 4.6 takes no parameter: there is nothing for the seed to draw.
        assert_eq!(
            stream(Workload::EnrichJoin, 1, 0, 8),
            stream(Workload::EnrichJoin, 2, 0, 8)
        );
    }

    #[test]
    fn catalogs_have_unique_keys_and_expected_slots() {
        let cat = enrich_catalog();
        assert_eq!(cat.len(), 604);
        assert_eq!(cat[JOIN_SLOT].key, "ex4.6");
        assert_eq!(cat[point_slot(2, 17)].key, "ex4.3:LF00017");
        assert_eq!(cat[point_slot(4, 17)].key, "ex4.5");
        assert_eq!(cat[RESTRICTED_BASE + 3].key, "ex4.6r:LF00003");
        for cat in [cat, scan_catalog()] {
            let mut keys: Vec<&str> = cat.iter().map(|s| s.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), cat.len());
        }
    }

    #[test]
    fn streams_stay_inside_the_statements_they_declare() {
        for w in Workload::ALL {
            let mut gen = OpGen::new(w, 7, 0);
            let declared = gen.statements_in_use();
            for _ in 0..2_000 {
                if let Op::Query(slot) = gen.next_op() {
                    assert!(
                        declared.binary_search(&slot).is_ok(),
                        "{} drew {slot}",
                        w.name()
                    );
                }
            }
        }
        // enrich-point: 64 hot landfills x 2 parameterised texts + 3 fixed.
        assert_eq!(
            OpGen::new(Workload::EnrichPoint, 7, 0)
                .statements_in_use()
                .len(),
            131
        );
    }

    #[test]
    fn live_mix_cycle_has_the_stated_shape() {
        let ops = stream(Workload::LiveMix, 42, 0, 16 * 10);
        let count = |k: OpKind| ops.iter().filter(|o| o.kind() == k).count();
        assert_eq!(count(OpKind::Query), 120);
        assert_eq!(count(OpKind::Assert), 20);
        assert_eq!(count(OpKind::Insert), 10);
        assert_eq!(count(OpKind::Readback), 10);
        let restricted = ops
            .iter()
            .filter(|o| matches!(o, Op::Query(s) if *s >= RESTRICTED_BASE))
            .count();
        assert_eq!(restricted, 10);
    }

    #[test]
    fn zipf_favours_the_head_of_the_hot_set() {
        let gen = OpGen::new(Workload::EnrichPoint, 42, 0);
        let head = gen.hot[0];
        let ops = stream(Workload::EnrichPoint, 42, 0, 5_000);
        // Rank 1 carries 1/H(64) ≈ 21 % of the draws; two of the five
        // templates take the landfill, so ≈ 8 % of all ops name it.
        let hits = ops
            .iter()
            .filter(|o| matches!(o, Op::Query(s) if *s == head || *s == ENRICH_LANDFILLS + head))
            .count();
        assert!(
            (250..600).contains(&hits),
            "head landfill drawn {hits} times"
        );
    }
}
