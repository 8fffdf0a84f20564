//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use crosse::core::sesql::scanner::extract_tags;
use crosse::prelude::*;
use crosse::rdf::{TriplePattern, TripleStore};
use crosse::relational::value::Value as RValue;

// ---- relational value ordering ---------------------------------------------

fn arb_value() -> impl Strategy<Value = RValue> {
    prop_oneof![
        Just(RValue::Null),
        any::<bool>().prop_map(RValue::Bool),
        any::<i64>().prop_map(RValue::Int),
        // Finite floats only: total_cmp handles NaN, but SQL never
        // produces one from our literals.
        (-1e12f64..1e12).prop_map(RValue::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(RValue::from),
    ]
}

proptest! {
    /// total_cmp is a total order: antisymmetric and transitive on samples.
    #[test]
    fn value_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
            prop_assert_eq!(a.total_cmp(&c), Ordering::Less);
        }
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    /// sql_cmp agrees with total_cmp whenever it is defined.
    #[test]
    fn sql_cmp_consistent_with_total(a in arb_value(), b in arb_value()) {
        if let Some(ord) = a.sql_cmp(&b) {
            prop_assert_eq!(ord, a.total_cmp(&b));
        }
    }
}

// ---- interned value semantics -----------------------------------------------

/// Text across scripts (ASCII, accented Latin, Greek/Cyrillic, CJK) so
/// interning is exercised on multi-byte UTF-8, not just ASCII.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}".prop_map(|s| s),
        "[À-ÿ]{1,8}".prop_map(|s| s),
        "[α-ωа-я]{1,8}".prop_map(|s| s),
        "[一-十]{1,6}".prop_map(|s| s),
    ]
}

fn value_hash(v: &RValue) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// Interned values are observationally identical to fresh values:
    /// round-trip through the lexical form, equality mirrors string
    /// equality, ordering mirrors string ordering, and hashes agree with
    /// equality — across Unicode scripts.
    #[test]
    fn interning_preserves_lexical_semantics(s in arb_text(), t in arb_text()) {
        let interner = crosse::relational::Interner::new();
        let interned_s = interner.value(&s);
        let fresh_s = RValue::from(s.as_str());
        prop_assert_eq!(&interned_s, &fresh_s);
        prop_assert_eq!(interned_s.lexical_form(), s.clone());
        prop_assert_eq!(value_hash(&interned_s), value_hash(&fresh_s));

        // A second interned string compares exactly like the raw strings
        // (the pointer fast path must never change the answer).
        let interned_t = interner.value(&t);
        prop_assert_eq!(interned_s == interned_t, s == t);
        prop_assert_eq!(interned_s.total_cmp(&interned_t), s.cmp(&t));
        if s == t {
            prop_assert_eq!(value_hash(&interned_s), value_hash(&interned_t));
        }
    }

    /// NULL and NaN have stable positions under the grouping semantics:
    /// ORDER BY puts NULLs first and NaNs inside the numeric class, and
    /// DISTINCT collapses NULL==NULL / NaN==NaN while keeping them apart.
    #[test]
    fn null_and_nan_ordering_in_group_keys_and_order_by(
        floats in prop::collection::vec(-1e9f64..1e9, 0..12),
        nulls in 0usize..3,
        nans in 0usize..3,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (x FLOAT)").unwrap();
        let table = db.catalog().get_table("t").unwrap();
        let mut rows: Vec<Vec<RValue>> =
            floats.iter().map(|f| vec![RValue::Float(*f)]).collect();
        rows.extend((0..nulls).map(|_| vec![RValue::Null]));
        rows.extend((0..nans).map(|_| vec![RValue::Float(f64::NAN)]));
        table.insert_many(rows).unwrap();

        // ORDER BY follows the total order: NULLs first, then numbers
        // (NaN sorted by the IEEE total order, i.e. after every finite).
        let sorted = db.query("SELECT x FROM t ORDER BY x").unwrap();
        for pair in sorted.rows.windows(2) {
            prop_assert!(
                pair[0][0].total_cmp(&pair[1][0]) != std::cmp::Ordering::Greater,
                "ORDER BY out of total order"
            );
        }
        for (i, row) in sorted.rows.iter().enumerate() {
            prop_assert_eq!(row[0].is_null(), i < nulls, "NULLs sort first");
        }

        // DISTINCT groups by the same semantics: all NULLs collapse to
        // one row, all NaNs to one row, finite values by value.
        let distinct = db.query("SELECT DISTINCT x FROM t").unwrap();
        let mut expect: std::collections::HashSet<u64> = floats
            .iter()
            .map(|f| f.to_bits())
            .collect();
        if nans > 0 {
            expect.insert(f64::NAN.to_bits());
        }
        let want = expect.len() + usize::from(nulls > 0);
        prop_assert_eq!(distinct.rows.len(), want);
    }

    /// A table loaded through the interner and one loaded with fresh
    /// strings answer every query shape identically (grouping, DISTINCT,
    /// ORDER BY, self-join through text keys).
    #[test]
    fn interned_and_fresh_tables_agree(
        rows in prop::collection::vec((0i64..20, "[a-zA-Z ]{0,6}"), 1..30),
    ) {
        let fresh_db = Database::new();
        let interned_db = Database::new();
        for db in [&fresh_db, &interned_db] {
            db.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
        }
        let fresh_rows: Vec<Vec<RValue>> = rows
            .iter()
            .map(|(x, s)| vec![RValue::Int(*x), RValue::from(s.as_str())])
            .collect();
        let interned_rows: Vec<Vec<RValue>> = rows
            .iter()
            .map(|(x, s)| {
                vec![RValue::Int(*x), interned_db.interner().value(s)]
            })
            .collect();
        fresh_db.catalog().get_table("t").unwrap().insert_many(fresh_rows).unwrap();
        interned_db.catalog().get_table("t").unwrap().insert_many(interned_rows).unwrap();

        for q in [
            "SELECT tag, COUNT(*), SUM(x) FROM t GROUP BY tag ORDER BY tag",
            "SELECT DISTINCT tag FROM t ORDER BY tag",
            "SELECT x, tag FROM t ORDER BY tag, x",
            "SELECT a.x, b.x FROM t a, t b WHERE a.tag = b.tag ORDER BY a.x, b.x",
            "SELECT COUNT(DISTINCT tag) FROM t",
        ] {
            let f = fresh_db.query(q).unwrap();
            let i = interned_db.query(q).unwrap();
            prop_assert_eq!(&f.rows, &i.rows, "query: {}", q);
        }
    }
}

// ---- relational engine ------------------------------------------------------

type Row = Vec<RValue>;

/// One `(INT, FLOAT, TEXT)` row of the hash-operator properties, drawn
/// from a domain small enough that equal keys are the common case. The
/// flag on the text says whether the cell is interned or its own
/// allocation.
type KeyCells = (Option<i64>, Option<f64>, Option<(&'static str, bool)>);

fn arb_key_cells() -> impl Strategy<Value = KeyCells> {
    (
        prop_oneof![Just(None), (0i64..3).prop_map(Some)],
        prop_oneof![
            Just(None),
            Just(Some(0.0)),
            Just(Some(-0.0)),
            Just(Some(1.0)),
            Just(Some(2.0)),
            Just(Some(1.5)),
            Just(Some(f64::NAN)),
        ],
        prop_oneof![
            Just(None),
            (prop_oneof![Just(""), Just("a"), Just("b")], any::<bool>()).prop_map(Some),
        ],
    )
}

fn key_rows(db: &Database, cells: &[KeyCells]) -> Vec<Row> {
    let text = |(s, interned): (&str, bool)| match interned {
        true => db.interner().value(s),
        false => RValue::from(s),
    };
    cells
        .iter()
        .map(|&(i, f, s)| {
            vec![
                i.map_or(RValue::Null, RValue::Int),
                f.map_or(RValue::Null, RValue::Float),
                s.map_or(RValue::Null, text),
            ]
        })
        .collect()
}

/// Rows as a multiset: sorted by `Value`'s total order.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rows inserted are rows scanned; ORDER BY really sorts; LIMIT bounds.
    #[test]
    fn insert_scan_sort_limit(
        amounts in prop::collection::vec(-1e6f64..1e6, 1..40),
        limit in 1usize..10,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (x FLOAT)").unwrap();
        let t = db.catalog().get_table("t").unwrap();
        t.insert_many(amounts.iter().map(|&a| vec![RValue::Float(a)]).collect())
            .unwrap();

        let rs = db.query("SELECT x FROM t ORDER BY x").unwrap();
        prop_assert_eq!(rs.len(), amounts.len());
        for w in rs.rows.windows(2) {
            prop_assert!(w[0][0].total_cmp(&w[1][0]) != std::cmp::Ordering::Greater);
        }

        let rs = db.query(&format!("SELECT x FROM t LIMIT {limit}")).unwrap();
        prop_assert_eq!(rs.len(), limit.min(amounts.len()));
    }

    /// DISTINCT, UNION / UNION ALL and GROUP BY return exactly what a
    /// `BTreeSet`/`BTreeMap` keyed by `Value`'s own order computes, over
    /// the keys the coded hash operators must not confuse or split: NULLs,
    /// `1` beside `1.0`, `0.0` beside `-0.0`, NaN, empty strings, equal
    /// strings from different allocations, and rows wider than an inline
    /// key.
    #[test]
    fn distinct_matches_set(cells in prop::collection::vec(arb_key_cells(), 0..60)) {
        use std::collections::{BTreeMap, BTreeSet};
        let db = Database::new();
        db.execute("CREATE TABLE t (i INT, f FLOAT, s TEXT)").unwrap();
        let rows = key_rows(&db, &cells);
        db.catalog().get_table("t").unwrap().insert_many(rows.clone()).unwrap();
        let pick = |r: &Row, cols: &[usize]| cols.iter().map(|&c| r[c].clone()).collect::<Row>();

        for (select, cols) in [
            ("i", &[0][..]),
            ("f, s", &[1, 2]),
            ("i, f, s", &[0, 1, 2]),
            ("s, i, f, s, f, i, s", &[2, 0, 1, 2, 1, 0, 2]),
        ] {
            let got = db.query(&format!("SELECT DISTINCT {select} FROM t")).unwrap().rows;
            let want: BTreeSet<Row> = rows.iter().map(|r| pick(r, cols)).collect();
            prop_assert_eq!(got.len(), want.len(), "DISTINCT {}: a duplicate got through", select);
            prop_assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), want, "DISTINCT {}", select);
        }

        // The INT and the FLOAT column meet in one operator: `1` and `1.0`
        // are one row of the UNION and one group of the GROUP BY.
        let members = || rows.iter().flat_map(|r| [pick(r, &[0, 2]), pick(r, &[1, 2])]);
        let got = db.query("SELECT i, s FROM t UNION SELECT f, s FROM t").unwrap().rows;
        let want: BTreeSet<Row> = members().collect();
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), want);
        let got = db.query("SELECT i, s FROM t UNION ALL SELECT f, s FROM t").unwrap().rows;
        prop_assert_eq!(sorted(got), sorted(members().collect()));

        let key = "CASE WHEN s = 'a' THEN i ELSE f END";
        let got = db
            .query(&format!("SELECT {key}, s, COUNT(*), COUNT(f) FROM t GROUP BY {key}, s"))
            .unwrap()
            .rows;
        let mut want: BTreeMap<Row, (i64, i64)> = BTreeMap::new();
        for r in &rows {
            let k = if r[2] == RValue::from("a") { r[0].clone() } else { r[1].clone() };
            let counts = want.entry(vec![k, r[2].clone()]).or_default();
            counts.0 += 1;
            counts.1 += i64::from(!r[1].is_null());
        }
        prop_assert_eq!(got.len(), want.len());
        for g in got {
            let counts = (g[2].clone(), g[3].clone());
            let (all, non_null) = want[&g[..2]];
            prop_assert_eq!(counts, (RValue::Int(all), RValue::Int(non_null)), "group {:?}", &g[..2]);
        }
    }

    /// COUNT/SUM/MIN/MAX agree with a direct computation.
    #[test]
    fn aggregates_agree(xs in prop::collection::vec(-1000i64..1000, 1..50)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        let t = db.catalog().get_table("t").unwrap();
        t.insert_many(xs.iter().map(|&x| vec![RValue::Int(x)]).collect()).unwrap();
        let rs = db
            .query("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM t")
            .unwrap();
        prop_assert_eq!(&rs.rows[0][0], &RValue::Int(xs.len() as i64));
        prop_assert_eq!(&rs.rows[0][1], &RValue::Int(xs.iter().sum()));
        prop_assert_eq!(&rs.rows[0][2], &RValue::Int(*xs.iter().min().unwrap()));
        prop_assert_eq!(&rs.rows[0][3], &RValue::Int(*xs.iter().max().unwrap()));
    }

    /// Hash joins (inner with and without a residual, LEFT) and the
    /// nested-loop join (inner and LEFT) equal a nested loop written
    /// here — over NULL keys, an INT column joined to a FLOAT one, and
    /// text keys from different allocations.
    #[test]
    fn hash_join_equals_cross_filter(
        left in prop::collection::vec(arb_key_cells(), 0..25),
        right in prop::collection::vec(arb_key_cells(), 0..25),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE l (i INT, f FLOAT, s TEXT)").unwrap();
        db.execute("CREATE TABLE r (i INT, f FLOAT, s TEXT)").unwrap();
        // NaN and -0.0 are grouping keys, not join keys: `NaN = NaN` is an
        // error in SQL comparison, and `0 = -0.0` holds there while the
        // hash join's `Value` keys tell the two zeros apart (as they did
        // before keys were coded; see ROADMAP), so neither is drawn here.
        let finite = |cells: &[KeyCells]| -> Vec<KeyCells> {
            cells.iter().map(|&(i, f, s)| (i, f.filter(|f| !f.is_nan()).map(|f| f + 0.0), s)).collect()
        };
        let (l_rows, r_rows) = (key_rows(&db, &finite(&left)), key_rows(&db, &finite(&right)));
        db.catalog().get_table("l").unwrap().insert_many(l_rows.clone()).unwrap();
        db.catalog().get_table("r").unwrap().insert_many(r_rows.clone()).unwrap();

        let eq = |a: &RValue, b: &RValue| a.sql_eq(b) == Some(true);
        let ne = |a: &RValue, b: &RValue| a.sql_eq(b) == Some(false);
        let lt = |a: &RValue, b: &RValue| a.sql_cmp(b) == Some(std::cmp::Ordering::Less);
        type On<'a> = &'a dyn Fn(&Row, &Row) -> bool;
        let cases: [(&str, On); 4] = [
            ("l.i = r.f", &|l, r| eq(&l[0], &r[1])),
            ("l.i = r.f AND l.s <> r.s", &|l, r| eq(&l[0], &r[1]) && ne(&l[2], &r[2])),
            ("l.s = r.s AND l.f = r.f AND l.i <> r.i",
                &|l, r| eq(&l[2], &r[2]) && eq(&l[1], &r[1]) && ne(&l[0], &r[0])),
            // No equality: the planner has only the nested loop.
            ("l.i < r.f", &|l, r| lt(&l[0], &r[1])),
        ];
        for (on, matches) in cases {
            for kind in ["JOIN", "LEFT JOIN"] {
                let got = db.query(&format!("SELECT * FROM l {kind} r ON {on}")).unwrap().rows;
                let mut want = Vec::new();
                for l in &l_rows {
                    let before = want.len();
                    want.extend(r_rows.iter().filter(|r| matches(l, r)).map(|r| [&l[..], r].concat()));
                    if want.len() == before && kind == "LEFT JOIN" {
                        want.push([&l[..], &[RValue::Null, RValue::Null, RValue::Null]].concat());
                    }
                }
                prop_assert_eq!(sorted(got), sorted(want), "{} ON {}", kind, on);
            }
            // The same join with a projection fused over it, and as cross +
            // filter.
            let got = db.query(&format!("SELECT r.s, l.i FROM l JOIN r ON {on}")).unwrap().rows;
            let cross = db.query(&format!("SELECT r.s, l.i FROM l, r WHERE {on}")).unwrap().rows;
            let want: Vec<Row> = l_rows
                .iter()
                .flat_map(|l| r_rows.iter().filter(move |r| matches(l, r)).map(|r| vec![r[2].clone(), l[0].clone()]))
                .collect();
            prop_assert_eq!(sorted(got), sorted(want.clone()), "projected ON {}", on);
            prop_assert_eq!(sorted(cross), sorted(want), "cross + filter {}", on);
        }
    }
}

// ---- SESQL scanner ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cleaning is exactly marker-stripping: re-inserting `( text )` for
    /// each tag reproduces the cleaned output, and the recovered tags carry
    /// the original condition text.
    #[test]
    fn scanner_clean_preserves_condition_text(
        cond in "[a-z]{1,6} = [0-9]{1,4}",
        id in "[a-z][a-z0-9]{0,5}",
        prefix in "[a-z ]{0,10}",
        suffix in "[a-z ]{0,10}",
    ) {
        let input = format!("{prefix}${{{cond}:{id}}}{suffix}");
        let (clean, tags) = extract_tags(&input).unwrap();
        prop_assert_eq!(tags.len(), 1);
        prop_assert_eq!(&tags[0].id, &id);
        prop_assert_eq!(&tags[0].text, &cond);
        prop_assert_eq!(clean, format!("{prefix}({cond}){suffix}"));
    }

    /// Text without markers passes through extract_tags untouched, and
    /// split_enrich never loses characters of the SQL part.
    #[test]
    fn scanner_is_identity_without_markers(text in "[a-zA-Z0-9 =<>,.']{0,60}") {
        // Skip inputs with unbalanced quotes (a lexical error by design).
        if text.matches('\'').count() % 2 == 1 {
            return Ok(());
        }
        if let Ok((clean, tags)) = extract_tags(&text) {
            prop_assert!(tags.is_empty());
            prop_assert_eq!(clean, text);
        }
    }
}

// ---- triple store -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every indexed pattern lookup agrees with filtering a full scan.
    #[test]
    fn pattern_match_agrees_with_scan(
        triples in prop::collection::vec((0u8..6, 0u8..4, 0u8..6), 0..60),
        qs in 0u8..6, qp in 0u8..4, qo in 0u8..6,
        mask in 0u8..8,
    ) {
        let store = TripleStore::new();
        for (s, p, o) in &triples {
            store.insert("g", &Triple::new(
                Term::iri(format!("s{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("o{o}")),
            ));
        }
        let pattern = TriplePattern {
            subject: (mask & 1 != 0).then(|| Term::iri(format!("s{qs}"))),
            predicate: (mask & 2 != 0).then(|| Term::iri(format!("p{qp}"))),
            object: (mask & 4 != 0).then(|| Term::iri(format!("o{qo}"))),
        };
        let got: std::collections::HashSet<_> =
            store.match_pattern(&["g"], &pattern).into_iter().collect();
        let want: std::collections::HashSet<_> = store
            .graph_triples("g")
            .into_iter()
            .filter(|t| {
                pattern.subject.as_ref().map(|x| *x == t.subject).unwrap_or(true)
                    && pattern.predicate.as_ref().map(|x| *x == t.predicate).unwrap_or(true)
                    && pattern.object.as_ref().map(|x| *x == t.object).unwrap_or(true)
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Insert + remove is a no-op on membership.
    #[test]
    fn insert_remove_roundtrip(s in 0u8..5, p in 0u8..5, o in 0u8..5) {
        let store = TripleStore::new();
        let t = Triple::new(
            Term::iri(format!("s{s}")),
            Term::iri(format!("p{p}")),
            Term::lit(format!("o{o}")),
        );
        prop_assert!(store.insert("g", &t));
        prop_assert!(store.contains("g", &t));
        prop_assert!(store.remove("g", &t));
        prop_assert!(!store.contains("g", &t));
        prop_assert_eq!(store.graph_len("g"), 0);
    }
}

// ---- SESQL enrichment invariants ---------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SCHEMAEXTENSION with RowPerMatch yields Σ max(1, matches(v)) rows,
    /// and never loses a base row.
    #[test]
    fn schema_extension_cardinality(
        elems in prop::collection::vec(0u8..6, 1..20),
        kb_levels in prop::collection::vec((0u8..6, 1u8..6), 0..10),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (elem TEXT)").unwrap();
        let tab = db.catalog().get_table("t").unwrap();
        tab.insert_many(
            elems.iter().map(|e| vec![RValue::from(format!("E{e}"))]).collect()
        ).unwrap();

        let kb = KnowledgeBase::new();
        kb.register_user("u");
        let mut seen = std::collections::HashSet::new();
        for (e, l) in &kb_levels {
            if seen.insert((*e, *l)) {
                kb.assert_statement("u", &Triple::new(
                    Term::iri(format!("E{e}")),
                    Term::iri("level"),
                    Term::lit(l.to_string()),
                )).unwrap();
            }
        }
        let per_elem = |e: u8| -> usize {
            seen.iter().filter(|(s, _)| *s == e).count()
        };
        let expected: usize = elems.iter().map(|&e| per_elem(e).max(1)).sum();

        let engine = SesqlEngine::new(db, kb);
        let r = engine
            .execute("u", "SELECT elem FROM t ENRICH SCHEMAEXTENSION(elem, level)")
            .unwrap();
        prop_assert_eq!(r.rows.len(), expected);
    }

    /// BOOL extensions preserve cardinality exactly and only add booleans.
    #[test]
    fn bool_extension_preserves_cardinality(
        elems in prop::collection::vec(0u8..6, 0..20),
        hazards in prop::collection::vec(0u8..6, 0..6),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (elem TEXT)").unwrap();
        db.catalog().get_table("t").unwrap().insert_many(
            elems.iter().map(|e| vec![RValue::from(format!("E{e}"))]).collect()
        ).unwrap();
        let kb = KnowledgeBase::new();
        kb.register_user("u");
        for h in &hazards {
            kb.assert_statement("u", &Triple::new(
                Term::iri(format!("E{h}")),
                Term::iri("isA"),
                Term::iri("Hazard"),
            )).unwrap();
        }
        let engine = SesqlEngine::new(db, kb);
        let r = engine
            .execute("u", "SELECT elem FROM t ENRICH BOOLSCHEMAEXTENSION(elem, isA, Hazard)")
            .unwrap();
        prop_assert_eq!(r.rows.len(), elems.len());
        let hazard_set: std::collections::HashSet<u8> = hazards.iter().copied().collect();
        for row in &r.rows.rows {
            let e: u8 = row[0].lexical_form()[1..].parse().unwrap();
            prop_assert_eq!(&row[1], &RValue::Bool(hazard_set.contains(&e)));
        }
    }
}

// ---- secondary indexes -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An indexed query plan returns exactly what the sequential plan
    /// returns, for point, IN-list and range predicates — including after
    /// deletes and updates (which force a lazy index rebuild).
    #[test]
    fn index_scan_equals_seq_scan(
        rows in prop::collection::vec((0u8..20, -50i64..50), 0..60),
        point in 0u8..20,
        lo in -50i64..50,
        span in 0i64..40,
        delete_key in 0u8..20,
    ) {
        let make = |indexed: bool| {
            let db = Database::new();
            db.execute("CREATE TABLE t (k TEXT, v INT)").unwrap();
            db.catalog().get_table("t").unwrap().insert_many(
                rows.iter()
                    .map(|(k, v)| vec![RValue::from(format!("k{k}")), RValue::Int(*v)])
                    .collect(),
            ).unwrap();
            if indexed {
                db.execute("CREATE INDEX ik ON t (k)").unwrap();
                db.execute("CREATE INDEX iv ON t (v)").unwrap();
            }
            db
        };
        let seq = make(false);
        let idx = make(true);
        let hi = lo + span;
        let queries = [
            format!("SELECT k, v FROM t WHERE k = 'k{point}' ORDER BY v, k"),
            format!("SELECT k, v FROM t WHERE k IN ('k{point}', 'k0') ORDER BY v, k"),
            format!("SELECT k, v FROM t WHERE v BETWEEN {lo} AND {hi} ORDER BY v, k"),
            format!("SELECT k, v FROM t WHERE v > {lo} ORDER BY v, k"),
        ];
        for q in &queries {
            prop_assert_eq!(
                seq.query(q).unwrap().rows,
                idx.query(q).unwrap().rows,
                "{}", q
            );
        }
        // Churn, then re-check (exercises the dirty-rebuild path).
        for db in [&seq, &idx] {
            db.execute(&format!("DELETE FROM t WHERE k = 'k{delete_key}'")).unwrap();
            db.execute(&format!("UPDATE t SET v = v + 1 WHERE v < {lo}")).unwrap();
        }
        for q in &queries {
            prop_assert_eq!(
                seq.query(q).unwrap().rows,
                idx.query(q).unwrap().rows,
                "after churn: {}", q
            );
        }
    }

    /// `x IN (SELECT ...)` matches the manually computed semi-join, and
    /// `NOT IN` its complement (no NULLs involved here).
    #[test]
    fn in_subquery_equals_semi_join(
        left in prop::collection::vec(0u8..15, 0..30),
        right in prop::collection::vec(0u8..15, 0..30),
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE l (x INT)").unwrap();
        db.execute("CREATE TABLE r (y INT)").unwrap();
        db.catalog().get_table("l").unwrap().insert_many(
            left.iter().map(|v| vec![RValue::Int(*v as i64)]).collect()).unwrap();
        db.catalog().get_table("r").unwrap().insert_many(
            right.iter().map(|v| vec![RValue::Int(*v as i64)]).collect()).unwrap();
        let rset: std::collections::HashSet<u8> = right.iter().copied().collect();

        let in_rows = db.query("SELECT x FROM l WHERE x IN (SELECT y FROM r)").unwrap();
        let expected = left.iter().filter(|v| rset.contains(v)).count();
        prop_assert_eq!(in_rows.len(), expected);

        let notin = db.query("SELECT x FROM l WHERE x NOT IN (SELECT y FROM r)").unwrap();
        if right.is_empty() {
            prop_assert_eq!(notin.len(), left.len());
        } else {
            prop_assert_eq!(notin.len(), left.len() - expected);
        }
    }

    /// A searched CASE with an ELSE branch never yields NULL, and agrees
    /// with the equivalent Rust-side classification.
    #[test]
    fn case_classification_total(vals in prop::collection::vec(-100i64..100, 0..40)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.catalog().get_table("t").unwrap().insert_many(
            vals.iter().map(|v| vec![RValue::Int(*v)]).collect()).unwrap();
        let rs = db.query(
            "SELECT v, CASE WHEN v < 0 THEN 'neg' WHEN v = 0 THEN 'zero' \
             ELSE 'pos' END FROM t").unwrap();
        for row in &rs.rows {
            let RValue::Int(v) = row[0] else { panic!() };
            let want = if v < 0 { "neg" } else if v == 0 { "zero" } else { "pos" };
            prop_assert_eq!(&row[1], &RValue::from(want));
        }
    }
}

// ---- SPARQL aggregates, MINUS, paths ----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GROUP BY + COUNT matches a manual per-key count, and the global
    /// COUNT(*) matches the row total.
    #[test]
    fn sparql_count_matches_manual(edges in prop::collection::vec((0u8..8, 0u8..8), 0..40)) {
        let store = TripleStore::new();
        for (s, o) in &edges {
            store.insert("g", &Triple::new(
                Term::iri(format!("S{s}")),
                Term::iri("p"),
                Term::iri(format!("O{o}")),
            ));
        }
        let distinct: std::collections::HashSet<(u8, u8)> = edges.iter().copied().collect();
        let sols = crosse::rdf::sparql::eval::query(
            &store, &["g"], "SELECT (COUNT(*) AS ?n) WHERE { ?s <p> ?o }").unwrap();
        let total = sols.rows[0][0].clone().unwrap();
        prop_assert_eq!(total.lexical_form(), distinct.len().to_string());

        let by_s = crosse::rdf::sparql::eval::query(
            &store, &["g"],
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <p> ?o } GROUP BY ?s").unwrap();
        let mut manual: std::collections::HashMap<u8, usize> = Default::default();
        for (s, _) in &distinct {
            *manual.entry(*s).or_default() += 1;
        }
        prop_assert_eq!(by_s.len(), manual.len());
        for row in &by_s.rows {
            let s: u8 = row[0].clone().unwrap().lexical_form()[1..].parse().unwrap();
            let n: usize = row[1].clone().unwrap().lexical_form().parse().unwrap();
            prop_assert_eq!(n, manual[&s]);
        }
    }

    /// `A MINUS A` is empty and `A MINUS (disjoint)` is `A`.
    #[test]
    fn sparql_minus_identities(edges in prop::collection::vec((0u8..8, 0u8..8), 1..30)) {
        let store = TripleStore::new();
        for (s, o) in &edges {
            store.insert("g", &Triple::new(
                Term::iri(format!("S{s}")),
                Term::iri("p"),
                Term::iri(format!("O{o}")),
            ));
        }
        let all = crosse::rdf::sparql::eval::query(
            &store, &["g"], "SELECT ?s ?o WHERE { ?s <p> ?o }").unwrap();
        let self_minus = crosse::rdf::sparql::eval::query(
            &store, &["g"],
            "SELECT ?s ?o WHERE { ?s <p> ?o . MINUS { ?s <p> ?o } }").unwrap();
        prop_assert!(self_minus.is_empty());
        let disjoint = crosse::rdf::sparql::eval::query(
            &store, &["g"],
            "SELECT ?s ?o WHERE { ?s <p> ?o . MINUS { ?x <q> ?y } }").unwrap();
        prop_assert_eq!(disjoint.len(), all.len());
    }

    /// The sequence path p/q equals the manual relational composition of
    /// the p and q edge sets, and ^p is the transpose of p.
    #[test]
    fn sparql_path_algebra(
        p_edges in prop::collection::vec((0u8..6, 0u8..6), 0..20),
        q_edges in prop::collection::vec((0u8..6, 0u8..6), 0..20),
    ) {
        let store = TripleStore::new();
        let node = |n: u8| Term::iri(format!("N{n}"));
        for (s, o) in &p_edges {
            store.insert("g", &Triple::new(node(*s), Term::iri("p"), node(*o)));
        }
        for (s, o) in &q_edges {
            store.insert("g", &Triple::new(node(*s), Term::iri("q"), node(*o)));
        }
        let pset: std::collections::HashSet<(u8, u8)> = p_edges.iter().copied().collect();
        let qset: std::collections::HashSet<(u8, u8)> = q_edges.iter().copied().collect();
        let mut composed: std::collections::HashSet<(u8, u8)> = Default::default();
        for (a, b) in &pset {
            for (b2, c) in &qset {
                if b == b2 {
                    composed.insert((*a, *c));
                }
            }
        }
        let seq = crosse::rdf::sparql::eval::query(
            &store, &["g"], "SELECT ?a ?c WHERE { ?a <p>/<q> ?c }").unwrap();
        let got: std::collections::HashSet<(u8, u8)> = seq.rows.iter().map(|r| {
            let a = r[0].clone().unwrap().lexical_form()[1..].parse().unwrap();
            let c = r[1].clone().unwrap().lexical_form()[1..].parse().unwrap();
            (a, c)
        }).collect();
        prop_assert_eq!(got, composed);

        let inv = crosse::rdf::sparql::eval::query(
            &store, &["g"], "SELECT ?o ?s WHERE { ?o ^<p> ?s }").unwrap();
        let inv_set: std::collections::HashSet<(u8, u8)> = inv.rows.iter().map(|r| {
            let o = r[0].clone().unwrap().lexical_form()[1..].parse().unwrap();
            let s = r[1].clone().unwrap().lexical_form()[1..].parse().unwrap();
            (s, o)
        }).collect();
        prop_assert_eq!(inv_set, pset);
    }
}

// ---- ID-native SPARQL engine vs reference evaluation ------------------------
//
// The compiled, id-native BGP evaluator (constant pre-resolution, greedy
// reordering with cardinality tiebreaks, prefix-sorted streaming probes)
// must return exactly the solution multiset of a straightforward
// nested-loop evaluation over the raw triples, for randomized BGPs over
// `smartground::random_kb` vocabularies.

/// One position of a generated pattern: a shared variable or a constant
/// drawn from (a superset of) the `random_kb` vocabulary — constants the
/// dictionary has never seen exercise the compile-time short-circuit.
#[derive(Debug, Clone, Copy)]
enum GenTerm {
    Var(u8),
    Node(u8),
    Prop(u8),
    Val(u8),
}

impl GenTerm {
    fn from_code(kind: u8, idx: u8) -> GenTerm {
        match kind % 4 {
            0 => GenTerm::Var(idx % 3),
            1 => GenTerm::Node(idx % 7),
            2 => GenTerm::Prop(idx % 5),
            _ => GenTerm::Val(idx % 24),
        }
    }

    fn to_term(self) -> Option<Term> {
        match self {
            GenTerm::Var(_) => None,
            GenTerm::Node(n) => Some(Term::iri(format!("node{n}"))),
            GenTerm::Prop(p) => Some(Term::iri(format!("prop{p}"))),
            GenTerm::Val(v) => Some(Term::lit(format!("val{v}"))),
        }
    }

    fn to_sparql(self) -> String {
        match self {
            GenTerm::Var(v) => format!("?v{v}"),
            GenTerm::Node(n) => format!("<node{n}>"),
            GenTerm::Prop(p) => format!("<prop{p}>"),
            GenTerm::Val(v) => format!("\"val{v}\""),
        }
    }
}

/// Brute-force BGP evaluation: nested loop over the raw triples in written
/// pattern order, no indexes, no reordering, terms compared structurally.
fn reference_bgp(
    triples: &[Triple],
    patterns: &[(GenTerm, GenTerm, GenTerm)],
) -> Vec<std::collections::BTreeMap<String, Term>> {
    use std::collections::BTreeMap;
    let mut rows: Vec<BTreeMap<String, Term>> = vec![BTreeMap::new()];
    for &(ps, pp, po) in patterns {
        let mut next = Vec::new();
        for row in &rows {
            'triple: for t in triples {
                let mut extended = row.clone();
                for (gen, part) in
                    [(ps, &t.subject), (pp, &t.predicate), (po, &t.object)]
                {
                    match gen.to_term() {
                        Some(c) => {
                            if c != *part {
                                continue 'triple;
                            }
                        }
                        None => {
                            let GenTerm::Var(v) = gen else { unreachable!() };
                            let name = format!("v{v}");
                            match extended.get(&name) {
                                Some(bound) if bound != part => continue 'triple,
                                Some(_) => {}
                                None => {
                                    extended.insert(name, part.clone());
                                }
                            }
                        }
                    }
                }
                next.push(extended);
            }
        }
        rows = next;
    }
    rows
}

/// Canonical multiset rendering: each solution as sorted (var, term) pairs,
/// the whole result sorted — row order is implementation-defined on both
/// sides.
fn canon(rows: Vec<Vec<(String, String)>>) -> Vec<Vec<(String, String)>> {
    let mut rows = rows;
    for r in &mut rows {
        r.sort();
    }
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled engine and the reference evaluator agree on the
    /// solution multiset of randomized BGPs over `random_kb`.
    #[test]
    fn id_native_bgp_matches_reference(
        n in 5usize..50,
        seed in 0u64..1000,
        raw_patterns in prop::collection::vec((0u8..4, 0u8..24, 0u8..4, 0u8..24, 0u8..4, 0u8..24), 1..4),
    ) {
        let patterns: Vec<(GenTerm, GenTerm, GenTerm)> = raw_patterns
            .iter()
            .map(|&(ks, is, kp, ip, ko, io)| {
                (
                    GenTerm::from_code(ks, is),
                    GenTerm::from_code(kp, ip),
                    GenTerm::from_code(ko, io),
                )
            })
            .collect();

        let triples = crosse::smartground::random_kb(n, 5, 3, seed).unwrap();
        let store = TripleStore::new();
        store.insert_all("g", triples.iter());

        let body: Vec<String> = patterns
            .iter()
            .map(|(s, p, o)| {
                format!("{} {} {}", s.to_sparql(), p.to_sparql(), o.to_sparql())
            })
            .collect();
        let sparql = format!("SELECT * WHERE {{ {} }}", body.join(" . "));
        let sols = crosse::rdf::sparql::eval::query(&store, &["g"], &sparql).unwrap();

        let engine_rows: Vec<Vec<(String, String)>> = sols
            .rows
            .iter()
            .map(|r| {
                sols.variables
                    .iter()
                    .zip(r)
                    .filter_map(|(v, t)| {
                        t.as_ref().map(|t| (v.clone(), t.to_string()))
                    })
                    .collect()
            })
            .collect();
        let reference_rows: Vec<Vec<(String, String)>> = reference_bgp(&triples, &patterns)
            .into_iter()
            .map(|m| m.into_iter().map(|(v, t)| (v, t.to_string())).collect())
            .collect();

        prop_assert_eq!(canon(engine_rows), canon(reference_rows), "{}", sparql);
    }

    /// Single-pattern sanity: every probe shape agrees with the reference
    /// (this isolates index selection from join ordering).
    #[test]
    fn id_native_single_pattern_matches_reference(
        n in 5usize..60,
        seed in 0u64..1000,
        ks in 0u8..4, is in 0u8..24,
        kp in 0u8..4, ip in 0u8..24,
        ko in 0u8..4, io in 0u8..24,
    ) {
        let pattern = (
            GenTerm::from_code(ks, is),
            GenTerm::from_code(kp, ip),
            GenTerm::from_code(ko, io),
        );
        let triples = crosse::smartground::random_kb(n, 5, 3, seed).unwrap();
        let store = TripleStore::new();
        store.insert_all("g", triples.iter());
        let sparql = format!(
            "SELECT * WHERE {{ {} {} {} }}",
            pattern.0.to_sparql(),
            pattern.1.to_sparql(),
            pattern.2.to_sparql()
        );
        let sols = crosse::rdf::sparql::eval::query(&store, &["g"], &sparql).unwrap();
        let reference = reference_bgp(&triples, &[pattern]);
        prop_assert_eq!(sols.len(), reference.len(), "{}", sparql);
    }
}

// ---- prepared statements ----------------------------------------------------

/// Render a value as a SQL literal (the textual-substitution side of the
/// prepare+bind ≡ substitution property).
fn sql_literal(v: &RValue) -> String {
    match v {
        RValue::Null => "NULL".to_string(),
        RValue::Bool(b) => b.to_string().to_uppercase(),
        RValue::Int(i) => i.to_string(),
        RValue::Float(f) => format!("{f:?}"),
        RValue::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// prepare + bind is observationally identical to substituting the
    /// literal into the query text and re-parsing, over randomized data,
    /// operators and bindings — in both the SQL and SESQL entry points.
    #[test]
    fn prepare_bind_equals_textual_substitution(
        rows in prop::collection::vec((0i64..50, "[a-z]{1,6}"), 1..40),
        needle in 0i64..50,
        tag in "[a-z]{1,6}",
        op_idx in 0usize..5,
        limit in 0u64..10,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
        let table = db.catalog().get_table("t").unwrap();
        table
            .insert_many(
                rows.iter()
                    .map(|(x, s)| vec![RValue::Int(*x), RValue::from(s.as_str())])
                    .collect(),
            )
            .unwrap();

        let op = ["=", "<>", "<", ">=", ">"][op_idx];
        // 0 stands for "no LIMIT clause".
        let limit_clause = if limit == 0 {
            String::new()
        } else {
            format!(" LIMIT {limit}")
        };
        let shape = format!(
            "SELECT x, tag FROM t WHERE x {op} $n OR tag = ? ORDER BY x, tag{limit_clause}"
        );
        let prepared = db.prepare(&shape).unwrap();
        let bound = prepared
            .query(
                &crosse::relational::Params::new()
                    .set("n", needle)
                    .push(tag.clone()),
            )
            .unwrap();

        let textual = shape
            .replace("$n", &sql_literal(&RValue::Int(needle)))
            .replace('?', &sql_literal(&RValue::from(tag.as_str())));
        let direct = db.query(&textual).unwrap();
        prop_assert_eq!(&bound.rows, &direct.rows, "shape: {}", shape);

        // Same property through the SESQL engine's prepare path.
        let kb = crosse::rdf::provenance::KnowledgeBase::new();
        kb.register_user("u");
        let engine = crosse::core::SesqlEngine::new(db, kb);
        let sesql_shape = format!(
            "SELECT x, tag FROM t WHERE x {op} $n ORDER BY x, tag{limit_clause}"
        );
        let p = engine.prepare(&sesql_shape).unwrap();
        let via_prepared = p
            .execute("u", &crosse::relational::Params::new().set("n", needle))
            .unwrap();
        let via_text = engine
            .execute(
                "u",
                &sesql_shape.replace("$n", &sql_literal(&RValue::Int(needle))),
            )
            .unwrap();
        prop_assert_eq!(&via_prepared.rows.rows, &via_text.rows.rows);

        // And with a schema enrichment on top: one handle, bound per
        // execution (the SQL leg is planned by the handle, the enrichment
        // joins onto whatever rows that binding selected).
        for (_, t) in rows.iter().step_by(2) {
            engine
                .knowledge_base()
                .assert_statement(
                    "u",
                    &crosse::rdf::store::Triple::new(
                        crosse::rdf::term::Term::iri(t.as_str()),
                        crosse::rdf::term::Term::iri("label"),
                        crosse::rdf::term::Term::lit(format!("L-{t}")),
                    ),
                )
                .unwrap();
        }
        let enriched_shape = format!("{sesql_shape} ENRICH SCHEMAEXTENSION(tag, label)");
        let p = engine.prepare(&enriched_shape).unwrap();
        for n in [needle, needle + 1] {
            let via_prepared = p
                .execute("u", &crosse::relational::Params::new().set("n", n))
                .unwrap();
            let via_text = engine
                .execute("u", &enriched_shape.replace("$n", &sql_literal(&RValue::Int(n))))
                .unwrap();
            prop_assert_eq!(&via_prepared.rows, &via_text.rows, "n = {}", n);
        }
    }

    /// Binding through a prepared SPARQL query equals writing the constant
    /// in the query text.
    #[test]
    fn sparql_prepare_bind_equals_substitution(
        subjects in prop::collection::vec("[a-z]{1,5}", 1..20),
        pick in 0usize..20,
    ) {
        let store = TripleStore::new();
        for (i, s) in subjects.iter().enumerate() {
            store.insert(
                "kb",
                &crosse::rdf::store::Triple::new(
                    crosse::rdf::term::Term::iri(s.clone()),
                    crosse::rdf::term::Term::iri("level"),
                    crosse::rdf::term::Term::lit(format!("{i}")),
                ),
            );
        }
        let target = &subjects[pick % subjects.len()];
        let p = crosse::rdf::sparql::prepare("SELECT ?o WHERE { $s <level> ?o }").unwrap();
        let bound = p
            .execute(
                &store,
                &["kb"],
                &crosse::rdf::sparql::SparqlParams::new()
                    .set("s", crosse::rdf::term::Term::iri(target.clone())),
            )
            .unwrap();
        let textual = crosse::rdf::sparql::eval::query(
            &store,
            &["kb"],
            &format!("SELECT ?o WHERE {{ <{target}> <level> ?o }}"),
        )
        .unwrap();
        prop_assert_eq!(bound.rows, textual.rows);
    }
}

// ---- semantic linter robustness ---------------------------------------------

/// A small pool of composable SQL shapes over two tables: clean queries,
/// every rule's trigger, and mixtures.
fn arb_lint_sql() -> impl Strategy<Value = String> {
    let filter = prop_oneof![
        Just(String::new()),
        (0i64..6, 0i64..6).prop_map(|(a, b)| format!(" WHERE {a} = {b}")),
        "[a-z]{1,4}".prop_map(|s| format!(" WHERE city = '{s}'")),
        (0i64..6).prop_map(|n| format!(" WHERE city = {n}")),
        Just(" WHERE city = city".to_string()),
        Just(" WHERE city = 'a' AND city = 'b'".to_string()),
        Just(" WHERE name = $p".to_string()),
        Just(" WHERE name = landfill_name".to_string()),
    ];
    (
        any::<bool>(),
        prop_oneof![Just("landfill"), Just("landfill, elem_contained")],
        filter,
        any::<bool>(),
    )
        .prop_map(|(distinct, from, filter, group)| {
            let mut s = format!(
                "SELECT {}city FROM {from}{filter}",
                if distinct { "DISTINCT " } else { "" }
            );
            // Unqualified-conjunct filters are ambiguous over the join
            // shape; GROUP BY keeps the statement well-formed either way.
            if group {
                s.push_str(" GROUP BY city");
            }
            s
        })
}

/// SPARQL shapes mixing every S-rule trigger with clean twins.
fn arb_lint_sparql() -> impl Strategy<Value = String> {
    let proj = prop_oneof![
        Just("*"),
        Just("?s"),
        Just("?s ?o"),
        Just("?ghost"),
        Just("(COUNT(*) AS ?n)"),
    ];
    let pattern = prop_oneof![
        Just("?s <urn:p> ?o"),
        Just("?s <urn:p> ?o . ?o <urn:q> ?z"),
        Just("?s <urn:p> ?dead"),
    ];
    let filter = prop_oneof![
        Just(""),
        Just(" FILTER(1 > 2)"),
        Just(" FILTER(2 > 1)"),
        Just(" FILTER(?o > 3)"),
    ];
    (proj, pattern, filter)
        .prop_map(|(p, b, f)| format!("SELECT {p} WHERE {{ {b}{f} }}"))
}

fn lint_fixture_session() -> crosse::core::session::Session {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE landfill (name TEXT, city TEXT);
         CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);",
    )
    .unwrap();
    let kb = KnowledgeBase::new();
    kb.register_user("u");
    crosse::core::session::Session::new(&SesqlEngine::new(db, kb), "u").unwrap()
}

proptest! {
    /// The linter never panics and never errors on any parseable SQL
    /// statement, and rendering every diagnostic (message + span) is
    /// total.
    #[test]
    fn sql_linter_total_on_parseable_statements(sql in arb_lint_sql()) {
        let s = lint_fixture_session();
        let diags = s.lint_sql(&sql).unwrap();
        for d in &diags {
            let rendered = d.to_string();
            prop_assert!(!rendered.is_empty());
            if let Some(span) = &d.span {
                prop_assert!(span.start <= span.end && span.end <= sql.len());
            }
        }
    }

    /// Same for SESQL: the enrichment rules compose with the SQL rules
    /// without panicking, whatever the combination.
    #[test]
    fn sesql_linter_total(
        sql in arb_lint_sql(),
        enrich in prop_oneof![
            Just(""),
            Just(" ENRICH SCHEMAEXTENSION(city, someProp)"),
            Just(" ENRICH SCHEMAREPLACEMENT(city, urn://p)"),
        ],
    ) {
        let s = lint_fixture_session();
        let stmt = format!("{sql}{enrich}");
        let diags = s.lint(&stmt).unwrap();
        for d in &diags {
            let rendered = d.to_string();
            prop_assert!(!rendered.is_empty());
        }
    }

    /// And for SPARQL: every parseable query lints without panicking.
    #[test]
    fn sparql_linter_total(sparql in arb_lint_sparql()) {
        let s = lint_fixture_session();
        let diags = s.lint_sparql(&sparql).unwrap();
        for d in &diags {
            let rendered = d.to_string();
            prop_assert!(!rendered.is_empty());
            if let Some(span) = &d.span {
                prop_assert!(span.start <= span.end && span.end <= sparql.len());
            }
        }
    }
}

// ---- foreign tables ------------------------------------------------------------

const FOREIGN_FLOATS: [f64; 4] = [-2.5, 0.5, 1.5, 7.25];
const FOREIGN_TEXTS: [&str; 3] = ["x", "xy", "z'q"];

/// One generated WHERE conjunct over table alias `q` of `a (k INT, f
/// FLOAT, s TEXT)` (`on_b`: over `b (k INT, g FLOAT)`), and whether its
/// text survives the trip to a source (`i / 2.0` renders `2.0` as `2`).
fn foreign_conjunct(q: &str, on_b: bool, (kind, i, j): (u8, i64, u8)) -> (String, bool) {
    let fl = FOREIGN_FLOATS[j as usize % FOREIGN_FLOATS.len()];
    let txt = FOREIGN_TEXTS[j as usize % FOREIGN_TEXTS.len()].replace('\'', "''");
    if on_b {
        return match kind % 5 {
            0 => (format!("{q}.g > {fl}"), true),
            1 => (format!("{q}.g IS NULL"), true),
            2 => (format!("{q}.k = {i}"), true),
            3 => (format!("({q}.g IS NULL OR {q}.g < {i})"), true),
            _ => (format!("{q}.k IS NULL"), true),
        };
    }
    match kind % 16 {
        0 => (format!("{q}.k = {i}"), true),
        1 => (format!("{q}.k > {i}"), true),
        2 => (format!("{q}.f = {i}"), true),
        3 => (format!("{q}.k < {fl}"), true),
        4 => (format!("{q}.f >= {fl}"), true),
        5 => (format!("{q}.s = '{txt}'"), true),
        6 => (format!("{q}.s IS NULL"), true),
        7 => (format!("{q}.k IS NOT NULL"), true),
        8 => (format!("{q}.k IN ({i}, {}, NULL)", i + 1), true),
        9 => (format!("{q}.f BETWEEN {i} AND {fl}"), true),
        10 => (format!("{q}.s LIKE 'x%'"), true),
        11 => (format!("NOT ({q}.k = {i})"), true),
        12 => (format!("({q}.k = {i} OR {q}.f IS NULL)"), true),
        13 => (format!("{q}.k >= $p"), true),
        14 => (format!("{q}.f / 2.0 > {i}"), false),
        _ => (format!("{q}.k = NULL"), true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Statements over foreign tables return what the same statements
    /// return over local copies of the rows — one-table filters, inner
    /// joins and LEFT joins (whose nullable side must ship nothing), with
    /// NULLs, Int-vs-Float comparisons and `$params`. A one-table filter
    /// whose conjuncts all ship moves exactly the matching rows.
    #[test]
    fn foreign_tables_agree_with_local_copies(
        a_rows in prop::collection::vec((0u8..10, 0u8..6, 0u8..4), 0..25),
        b_rows in prop::collection::vec((0u8..10, 0u8..6), 0..15),
        on_a in prop::collection::vec((0u8..16, 0i64..8, 0u8..4), 0..4),
        on_b in prop::collection::vec((0u8..5, 0i64..8, 0u8..4), 0..3),
        p in 0i64..8,
    ) {
        let int = |c: u8| if c >= 8 { RValue::Null } else { RValue::Int(c as i64) };
        let float = |c: u8| match c {
            0 => RValue::Null,
            1 => RValue::Float(2.0),
            c => RValue::Float(FOREIGN_FLOATS[(c - 2) as usize]),
        };
        let text = |c: u8| FOREIGN_TEXTS.get(c as usize).map_or(RValue::Null, |t| RValue::from(*t));
        let a: Vec<Row> = a_rows.iter().map(|&(k, f, s)| vec![int(k), float(f), text(s)]).collect();
        let b: Vec<Row> = b_rows.iter().map(|&(k, g)| vec![int(k), float(g)]).collect();
        let load = |db: &Database| {
            db.execute_script("CREATE TABLE a (k INT, f FLOAT, s TEXT); CREATE TABLE b (k INT, g FLOAT);")
                .unwrap();
            db.catalog().get_table("a").unwrap().insert_many(a.clone()).unwrap();
            db.catalog().get_table("b").unwrap().insert_many(b.clone()).unwrap();
        };
        let source_db = Database::new();
        load(&source_db);
        let source = LocalSource::new("src", source_db);
        let db = Database::new();
        load(&db);
        db.register_source(std::sync::Arc::new(source.clone())).unwrap();
        let params = crosse::relational::Params::new().set("p", p);
        let run = |sql: &str| db.prepare(sql).unwrap().query(&params).unwrap().rows;

        let where_of = |conjuncts: Vec<(String, bool)>| -> (String, bool) {
            let ships = conjuncts.iter().all(|(_, s)| *s);
            let texts: Vec<String> = conjuncts.into_iter().map(|(c, _)| c).collect();
            let clause = if texts.is_empty() { String::new() } else { format!(" WHERE {}", texts.join(" AND ")) };
            (clause, ships)
        };
        let a_conj = |q: &str| on_a.iter().map(|&c| foreign_conjunct(q, false, c)).collect::<Vec<_>>();
        let b_conj = |q: &str| on_b.iter().map(|&c| foreign_conjunct(q, true, c)).collect::<Vec<_>>();

        // One table: equal rows, and exactly the matches cross the wire.
        let (clause, ships) = where_of(a_conj("q"));
        let shape = |t: &str| format!("SELECT q.k, q.f, q.s FROM {t} q{clause} ORDER BY q.k, q.f, q.s");
        let local = run(&shape("a"));
        let before = source.stats().rows_transferred;
        let remote = run(&shape("src__a"));
        let moved = source.stats().rows_transferred - before;
        prop_assert_eq!(&remote, &local, "{}", shape("src__a"));
        if ships {
            prop_assert_eq!(moved, local.len() as u64, "{}", shape("src__a"));
        } else {
            prop_assert!(moved >= local.len() as u64);
        }

        // Joins over both tables, inner and LEFT.
        let mut conjuncts = a_conj("x");
        conjuncts.extend(b_conj("y"));
        let (clause, _) = where_of(conjuncts);
        for join in ["JOIN", "LEFT JOIN"] {
            let shape = |ta: &str, tb: &str| {
                format!(
                    "SELECT x.k, x.s, y.g FROM {ta} x {join} {tb} y ON x.k = y.k{clause} \
                     ORDER BY x.k, x.s, y.g"
                )
            };
            prop_assert_eq!(run(&shape("src__a", "src__b")), run(&shape("a", "b")), "{}", shape("src__a", "src__b"));
        }
    }
}
