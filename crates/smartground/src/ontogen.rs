//! Ontology generators: the contextual knowledge the paper's personas hold.
//!
//! Three bundles are generated, matching the paper's narrative:
//!
//! * [`danger_ontology`] — the lab director's knowledge: `dangerLevel` per
//!   element, `isA HazardousWaste` for the dangerous ones, a small RDFS
//!   class hierarchy (HeavyMetal ⊑ Metal ⊑ Element).
//! * [`geo_ontology`] — geographic knowledge: `inCountry` for every city
//!   (Examples 4.2 / 4.4).
//! * [`assemblage_ontology`] — domain knowledge about "elements which
//!   typically occur together" (`oreAssemblage`, Example 4.6).
//!
//! [`random_kb`] generates arbitrary-size knowledge bases for the store
//! scaling experiment (E4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::schema as rdfschema;
use crosse_rdf::store::Triple;
use crosse_rdf::term::Term;

use crate::schema::{CITIES, ELEMENTS};

fn iri(s: &str) -> Term {
    Term::iri(s)
}

/// Danger level (1–5) assigned to an element symbol. Deterministic domain
/// table: the genuinely toxic heavy metals score high.
pub fn danger_level(symbol: &str) -> i64 {
    match symbol {
        "Hg" | "Cd" | "Tl" | "As" | "U" => 5,
        "Pb" | "Cr" | "Sb" | "Se" | "Th" => 4,
        "Ni" | "Co" | "Zn" | "Cu" | "Ba" => 3,
        "Mo" | "V" | "Mn" | "Sn" | "Bi" => 2,
        _ => 1,
    }
}

/// Danger threshold above which an element is `isA HazardousWaste`.
pub const HAZARD_THRESHOLD: i64 = 4;

/// The triples of the director's danger ontology.
pub fn danger_triples() -> Vec<Triple> {
    let mut out = Vec::new();
    for (sym, _, _) in ELEMENTS {
        let lvl = danger_level(sym);
        out.push(Triple::new(
            iri(sym),
            iri("dangerLevel"),
            Term::lit(lvl.to_string()),
        ));
        if lvl >= HAZARD_THRESHOLD {
            out.push(Triple::new(iri(sym), iri("isA"), iri("HazardousWaste")));
        }
    }
    // Class hierarchy exercised by the RDFS reasoner.
    out.push(Triple::new(
        iri("HeavyMetal"),
        rdfschema::rdfs_subclass_of(),
        iri("Metal"),
    ));
    out.push(Triple::new(
        iri("Metal"),
        rdfschema::rdfs_subclass_of(),
        iri("Element"),
    ));
    for sym in ["Hg", "Pb", "Cd", "Tl", "Bi"] {
        out.push(Triple::new(iri(sym), rdfschema::rdf_type(), iri("HeavyMetal")));
    }
    out
}

/// Assert the danger ontology as `user`'s personal knowledge.
pub fn danger_ontology(kb: &KnowledgeBase, user: &str) -> crosse_rdf::Result<usize> {
    let triples = danger_triples();
    for t in &triples {
        kb.assert_statement(user, t)?;
    }
    Ok(triples.len())
}

/// The geographic ontology: `<city> inCountry <country>` for every city.
pub fn geo_triples() -> Vec<Triple> {
    CITIES
        .iter()
        .map(|(city, _, country)| Triple::new(iri(city), iri("inCountry"), iri(country)))
        .collect()
}

pub fn geo_ontology(kb: &KnowledgeBase, user: &str) -> crosse_rdf::Result<usize> {
    let triples = geo_triples();
    for t in &triples {
        kb.assert_statement(user, t)?;
    }
    Ok(triples.len())
}

/// Ore-assemblage knowledge: geologically motivated co-occurrence pairs.
pub fn assemblage_triples() -> Vec<Triple> {
    // Classic parageneses: cinnabar with arsenic/antimony sulfides,
    // galena–sphalerite, chalcopyrite with pyrite partners, rare earths.
    const PAIRS: &[(&str, &str)] = &[
        ("Hg", "As"),
        ("Hg", "Sb"),
        ("Pb", "Zn"),
        ("Pb", "Ag"),
        ("Zn", "Cd"),
        ("Cu", "Au"),
        ("Cu", "Mo"),
        ("Ni", "Co"),
        ("Sn", "W"),
        ("Nb", "Ta_placeholder"),
        ("La", "Ce"),
        ("Ce", "Nd"),
        ("Pt", "Pd"),
        ("U", "Th"),
        ("Ga", "Al"),
        ("In", "Zn"),
        ("Se", "Te"),
        ("Bi", "Pb"),
    ];
    PAIRS
        .iter()
        .map(|(a, b)| Triple::new(iri(a), iri("oreAssemblage"), iri(b)))
        .collect()
}

pub fn assemblage_ontology(kb: &KnowledgeBase, user: &str) -> crosse_rdf::Result<usize> {
    let triples = assemblage_triples();
    for t in &triples {
        kb.assert_statement(user, t)?;
    }
    Ok(triples.len())
}

/// Everything a "director" persona knows (danger + geo + assemblage).
pub fn director_ontology(kb: &KnowledgeBase, user: &str) -> crosse_rdf::Result<usize> {
    Ok(danger_ontology(kb, user)? + geo_ontology(kb, user)? + assemblage_ontology(kb, user)?)
}

/// A synthetic knowledge base of `n` triples over `subjects` subjects and
/// `properties` properties — the E4 scaling workload. Deterministic in the
/// seed; triples may repeat subjects but are pairwise distinct.
///
/// An impossible request — `n` larger than the number of distinct triples
/// the vocabulary can express — is a typed error. (It used to spin the
/// rejection-sampling loop forever, which in a server process is as fatal
/// as an abort.)
pub fn random_kb(
    n: usize,
    subjects: usize,
    properties: usize,
    seed: u64,
) -> crosse_rdf::Result<Vec<Triple>> {
    let subjects = subjects.max(1);
    let properties = properties.max(1);
    let space = subjects
        .saturating_mul(properties)
        .saturating_mul(subjects.saturating_mul(4));
    if n > space {
        return Err(crosse_rdf::Error::store(format!(
            "random_kb: cannot generate {n} distinct triples from a vocabulary of \
             {subjects} subject(s) × {properties} propert(y/ies) × {} object(s) \
             ({space} possible triples)",
            subjects * 4
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while out.len() < n {
        let s = rng.gen_range(0..subjects);
        let p = rng.gen_range(0..properties);
        let o = rng.gen_range(0..subjects * 4);
        if seen.insert((s, p, o)) {
            out.push(Triple::new(
                iri(&format!("node{s}")),
                iri(&format!("prop{p}")),
                Term::lit(format!("val{o}")),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn danger_levels_cover_inventory() {
        for (sym, _, _) in ELEMENTS {
            let lvl = danger_level(sym);
            assert!((1..=5).contains(&lvl), "{sym} has level {lvl}");
        }
        assert_eq!(danger_level("Hg"), 5);
        assert_eq!(danger_level("Fe"), 1);
    }

    #[test]
    fn danger_triples_include_hazard_marks() {
        let ts = danger_triples();
        let hazards: Vec<_> = ts
            .iter()
            .filter(|t| t.predicate == iri("isA"))
            .collect();
        assert!(hazards.len() >= 8, "ten elements are level >= 4");
        assert!(hazards
            .iter()
            .all(|t| t.object == iri("HazardousWaste")));
    }

    #[test]
    fn ontologies_load_into_kb() {
        let kb = KnowledgeBase::new();
        kb.register_user("director").unwrap();
        let n = director_ontology(&kb, "director").unwrap();
        assert_eq!(kb.personal_size("director"), n);
        // dangerLevel of Hg queryable in the user's context
        let sols = kb
            .query_as("director", "SELECT ?d WHERE { <Hg> <dangerLevel> ?d }")
            .unwrap();
        assert_eq!(sols.rows[0][0].as_ref().unwrap().lexical_form(), "5");
    }

    #[test]
    fn geo_covers_all_cities() {
        assert_eq!(geo_triples().len(), CITIES.len());
    }

    #[test]
    fn assemblage_subjects_are_elements() {
        let symbols: std::collections::HashSet<&str> =
            ELEMENTS.iter().map(|(s, _, _)| *s).collect();
        for t in assemblage_triples() {
            let Term::Iri(s) = &t.subject else {
                panic!("assemblage subject must be an IRI, got {:?}", t.subject)
            };
            assert!(symbols.contains(s.as_str()), "{s} not in inventory");
        }
    }

    #[test]
    fn random_kb_is_deterministic_and_exact_size() {
        let a = random_kb(500, 50, 10, 1).unwrap();
        let b = random_kb(500, 50, 10, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let c = random_kb(500, 50, 10, 2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn random_kb_triples_are_distinct() {
        let ts = random_kb(1000, 20, 5, 3).unwrap();
        let set: std::collections::HashSet<_> = ts.iter().collect();
        assert_eq!(set.len(), ts.len());
    }

    #[test]
    fn rdfs_hierarchy_materialises() {
        let kb = KnowledgeBase::new();
        kb.register_user("director").unwrap();
        danger_ontology(&kb, "director").unwrap();
        // Move the hierarchy triples into the common graph for inference.
        kb.load_common(&danger_triples()).unwrap();
        let n = kb.materialize_inferences().unwrap();
        assert!(n > 0);
        let sols = kb
            .query_as("director", "SELECT ?x WHERE { ?x rdf:type <Metal> }")
            .unwrap();
        assert!(sols.len() >= 5, "heavy metals inferred as metals");
    }
}
