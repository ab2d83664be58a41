//! Evaluation metrics from Section 6 of the paper.
//!
//! The central quality metric is the *state ratio*: the average, over every
//! key present at any participant, of the number of distinct values the
//! participants hold for that key — counting "no value" as a value. It ranges
//! from 1 (all participants have exactly the same state) up to the number of
//! participants (every participant disagrees on every key); lower is better,
//! indicating more shared data.

use orchestra_model::{KeyValue, Tuple};
use orchestra_storage::Database;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

/// Computes the state ratio over a single relation.
///
/// For every key present in at least one instance, count the number of
/// distinct states among the participants — a state is either the tuple held
/// under that key or "absent" — and average over the keys. An empty key
/// population yields a ratio of 1.0 (all instances identical because all are
/// empty).
pub fn state_ratio_for_relation(instances: &[&Database], relation: &str) -> f64 {
    if instances.is_empty() {
        return 1.0;
    }
    // Union of keys across all instances.
    let mut keys: BTreeSet<KeyValue> = BTreeSet::new();
    let mut per_instance: Vec<FxHashMap<KeyValue, Tuple>> = Vec::with_capacity(instances.len());
    for db in instances {
        let contents = db.relation_contents(relation);
        let mut map = FxHashMap::default();
        for (k, v) in contents {
            keys.insert(k.clone());
            map.insert(k, v);
        }
        per_instance.push(map);
    }
    if keys.is_empty() {
        return 1.0;
    }
    let mut total_distinct = 0usize;
    for key in &keys {
        let mut distinct: FxHashSet<Option<&Tuple>> = FxHashSet::default();
        for map in &per_instance {
            distinct.insert(map.get(key));
        }
        total_distinct += distinct.len();
    }
    total_distinct as f64 / keys.len() as f64
}

/// Computes the state ratio averaged over every relation of the schema that
/// holds at least one tuple at any participant.
pub fn state_ratio(instances: &[&Database]) -> f64 {
    let Some(first) = instances.first() else { return 1.0 };
    let mut ratios = Vec::new();
    for relation in first.schema().relation_names() {
        let populated = instances.iter().any(|db| db.table(relation).is_ok_and(|t| !t.is_empty()));
        if populated {
            ratios.push(state_ratio_for_relation(instances, relation));
        }
    }
    if ratios.is_empty() {
        1.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ParticipantId, Update};

    fn db_with(rows: &[(&str, &str, &str)]) -> Database {
        let mut db = Database::new(bioinformatics_schema());
        for (org, prot, f) in rows {
            db.apply_update(&Update::insert(
                "Function",
                Tuple::of_text(&[org, prot, f]),
                ParticipantId(1),
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn identical_instances_have_ratio_one() {
        let a = db_with(&[("rat", "prot1", "immune"), ("mouse", "prot2", "cell-resp")]);
        let b = a.clone();
        let c = a.clone();
        let ratio = state_ratio_for_relation(&[&a, &b, &c], "Function");
        assert!((ratio - 1.0).abs() < 1e-9);
        assert!((state_ratio(&[&a, &b, &c]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_instances_have_ratio_one() {
        let a = Database::new(bioinformatics_schema());
        let b = Database::new(bioinformatics_schema());
        assert!((state_ratio_for_relation(&[&a, &b], "Function") - 1.0).abs() < 1e-9);
        assert!((state_ratio(&[&a, &b]) - 1.0).abs() < 1e-9);
        assert!((state_ratio(&[]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disagreeing_values_raise_the_ratio() {
        let a = db_with(&[("rat", "prot1", "immune")]);
        let b = db_with(&[("rat", "prot1", "cell-resp")]);
        // Two participants, one key, two distinct values: ratio 2.
        let ratio = state_ratio_for_relation(&[&a, &b], "Function");
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_values_count_as_a_distinct_state() {
        let a = db_with(&[("rat", "prot1", "immune")]);
        let b = Database::new(bioinformatics_schema());
        // One has the key, one lacks it: two distinct states.
        let ratio = state_ratio_for_relation(&[&a, &b], "Function");
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_averages_over_keys() {
        // Key 1: both agree (1 distinct). Key 2: disagree (2 distinct).
        let a = db_with(&[("rat", "prot1", "immune"), ("mouse", "prot2", "x")]);
        let b = db_with(&[("rat", "prot1", "immune"), ("mouse", "prot2", "y")]);
        let ratio = state_ratio_for_relation(&[&a, &b], "Function");
        assert!((ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_is_bounded_by_participant_count() {
        let a = db_with(&[("rat", "prot1", "v1")]);
        let b = db_with(&[("rat", "prot1", "v2")]);
        let c = db_with(&[("rat", "prot1", "v3")]);
        let d = db_with(&[("rat", "prot1", "v4")]);
        let ratio = state_ratio_for_relation(&[&a, &b, &c, &d], "Function");
        assert!((ratio - 4.0).abs() < 1e-9);
        assert!(ratio <= 4.0);
    }

    #[test]
    fn overall_ratio_ignores_unpopulated_relations() {
        let a = db_with(&[("rat", "prot1", "v1")]);
        let b = db_with(&[("rat", "prot1", "v1")]);
        // XRef is empty everywhere and must not drag the average.
        assert!((state_ratio(&[&a, &b]) - 1.0).abs() < 1e-9);
    }
}
