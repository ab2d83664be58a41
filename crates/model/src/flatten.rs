//! Net-effect ("flattening") computation over update sequences.
//!
//! Section 4.2 of the paper relies on a `flatten(s)` function that takes an
//! ordered sequence of updates and produces a set of mutually independent
//! updates with all dependency chains removed, in the style of Heraclitus
//! deltas: if a transaction chain inserts a tuple and then modifies it, the
//! flattened form is a single insertion of the final value; if it inserts and
//! then deletes, the net effect is empty; and so on.
//!
//! Flattening is what implements the paper's *least interaction* principle —
//! intermediate states of a tuple are disregarded, only final states are
//! compared for conflicts.

use crate::schema::Schema;
use crate::tuple::{KeyValue, Tuple};
use crate::update::{Update, UpdateOp};
use rustc_hash::FxHashMap;

/// The net effect on a single key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NetEffect {
    Insert(Tuple),
    Delete(Tuple),
    Modify { from: Tuple, to: Tuple },
}

/// Flattens an ordered sequence of updates into a set of mutually independent
/// updates with intermediate steps removed.
///
/// Chaining rules (per relation, per key; a modification that changes key
/// attributes migrates the chain to the new key):
///
/// | existing net effect | next update       | new net effect            |
/// |---------------------|-------------------|----------------------------|
/// | —                   | insert t          | insert t                   |
/// | —                   | delete t          | delete t                   |
/// | —                   | modify a→b        | modify a→b                 |
/// | insert a            | modify a→b        | insert b                   |
/// | insert a            | delete a          | (nothing)                  |
/// | modify a→b          | modify b→c        | modify a→c (or nothing if a = c) |
/// | modify a→b          | delete b          | delete a                   |
/// | delete a            | insert b (same key) | modify a→b (or nothing if a = b) |
///
/// The provenance (`origin`) of each resulting update is taken from the last
/// update contributing to the chain, matching the paper's treatment of the
/// final state as the one that matters.
///
/// Updates over relations unknown to the schema are passed through untouched;
/// flattening never drops information it cannot interpret.
///
/// The input is any sequence of borrowed updates — a slice, or a chain over
/// several shared update lists — so callers never copy a footprint together
/// just to flatten it.
pub fn flatten<'a>(schema: &Schema, updates: impl IntoIterator<Item = &'a Update>) -> Vec<Update> {
    // Per relation: key -> (net effect, origin of last contribution, sequence
    // number of first contribution, used to keep output order stable).
    type ChainMap = FxHashMap<KeyValue, (NetEffect, crate::ids::ParticipantId, usize)>;
    let mut chains: FxHashMap<crate::intern::RelName, ChainMap> = FxHashMap::default();
    let mut passthrough: Vec<(usize, Update)> = Vec::new();

    for (seq, u) in updates.into_iter().enumerate() {
        let Ok(rel) = schema.relation(&u.relation) else {
            passthrough.push((seq, u.clone()));
            continue;
        };
        let per_rel = chains.entry(u.relation.clone()).or_default();
        match &u.op {
            UpdateOp::Insert(t) => {
                let key = rel.key_of(t);
                match per_rel.remove(&key) {
                    None => {
                        per_rel.insert(key, (NetEffect::Insert(t.clone()), u.origin, seq));
                    }
                    Some((NetEffect::Delete(old), _, first)) => {
                        if old != *t {
                            per_rel.insert(
                                key,
                                (NetEffect::Modify { from: old, to: t.clone() }, u.origin, first),
                            );
                        }
                        // delete a; insert a  => no net effect
                    }
                    Some((prev, origin, first)) => {
                        // Inserting over an existing insert/modify of the same
                        // key is not a well-formed chain; keep the previous
                        // effect and record the insert separately so no
                        // information is lost.
                        per_rel.insert(key, (prev, origin, first));
                        passthrough.push((seq, u.clone()));
                    }
                }
            }
            UpdateOp::Delete(t) => {
                let key = rel.key_of(t);
                match per_rel.remove(&key) {
                    None => {
                        per_rel.insert(key, (NetEffect::Delete(t.clone()), u.origin, seq));
                    }
                    Some((NetEffect::Insert(_), _, _)) => {
                        // insert a; delete a => nothing
                    }
                    Some((NetEffect::Modify { from, .. }, _, first)) => {
                        per_rel.insert(key, (NetEffect::Delete(from), u.origin, first));
                    }
                    Some((NetEffect::Delete(old), origin, first)) => {
                        // Double delete of the same key: keep the first.
                        per_rel.insert(key, (NetEffect::Delete(old), origin, first));
                    }
                }
            }
            UpdateOp::Modify { from, to } => {
                let from_key = rel.key_of(from);
                let to_key = rel.key_of(to);
                match per_rel.remove(&from_key) {
                    None => {
                        per_rel.insert(
                            to_key,
                            (
                                NetEffect::Modify { from: from.clone(), to: to.clone() },
                                u.origin,
                                seq,
                            ),
                        );
                    }
                    Some((NetEffect::Insert(_), _, first)) => {
                        per_rel.insert(to_key, (NetEffect::Insert(to.clone()), u.origin, first));
                    }
                    Some((NetEffect::Modify { from: orig, .. }, _, first)) => {
                        if orig == *to {
                            // a -> b -> a: no net effect.
                        } else {
                            per_rel.insert(
                                to_key,
                                (NetEffect::Modify { from: orig, to: to.clone() }, u.origin, first),
                            );
                        }
                    }
                    Some((NetEffect::Delete(old), origin, first)) => {
                        // delete a; modify a->b is not well formed; keep the
                        // delete and pass the modify through.
                        per_rel.insert(from_key, (NetEffect::Delete(old), origin, first));
                        passthrough.push((seq, u.clone()));
                    }
                }
            }
        }
    }

    let mut out: Vec<(usize, Update)> = passthrough;
    for (relation, per_rel) in chains {
        for (_key, (effect, origin, first)) in per_rel {
            let update = match effect {
                NetEffect::Insert(t) => Update::insert(relation.clone(), t, origin),
                NetEffect::Delete(t) => Update::delete(relation.clone(), t, origin),
                NetEffect::Modify { from, to } => {
                    Update::modify(relation.clone(), from, to, origin)
                }
            };
            out.push((first, update));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    out.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ParticipantId;
    use crate::schema::bioinformatics_schema;
    use crate::update::UpdateKind;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    #[test]
    fn insert_then_modify_becomes_single_insert() {
        // The paper's X3:0, X3:1 chain from Figure 2.
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "cell-metab"), p(3)),
            Update::modify(
                "Function",
                func("rat", "prot1", "cell-metab"),
                func("rat", "prot1", "immune"),
                p(3),
            ),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Insert);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "immune"));
    }

    #[test]
    fn insert_then_modify_to_new_key_becomes_insert_of_new_key() {
        // The paper's X3:2, X3:3 example in Section 4.2: +(mouse, prot2,
        // cell-resp) then (mouse, prot2, cell-resp) -> (mouse, prot3,
        // cell-resp) minimizes to +(mouse, prot3, cell-resp).
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("mouse", "prot2", "cell-resp"), p(3)),
            Update::modify(
                "Function",
                func("mouse", "prot2", "cell-resp"),
                func("mouse", "prot3", "cell-resp"),
                p(3),
            ),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Insert);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("mouse", "prot3", "cell-resp"));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "immune"), p(1)),
            Update::delete("Function", func("rat", "prot1", "immune"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn modify_chain_composes() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::modify("Function", func("rat", "prot1", "b"), func("rat", "prot1", "c"), p(2)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "c"));
        assert_eq!(flat[0].origin, p(2));
    }

    #[test]
    fn modify_back_to_original_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::modify("Function", func("rat", "prot1", "b"), func("rat", "prot1", "a"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn modify_then_delete_becomes_delete_of_original() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::delete("Function", func("rat", "prot1", "b"), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Delete);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
    }

    #[test]
    fn delete_then_insert_becomes_modify() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::delete("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("rat", "prot1", "b"), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].kind(), UpdateKind::Modify);
        assert_eq!(flat[0].read_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "b"));
    }

    #[test]
    fn delete_then_reinsert_same_value_cancels() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::delete("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
        ];
        assert!(flatten(&schema, &updates).is_empty());
    }

    #[test]
    fn independent_keys_are_preserved_in_order() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::insert("Function", func("mouse", "prot2", "b"), p(1)),
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "db", "acc"]), p(1)),
        ];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[0].written_tuple().unwrap(), &func("rat", "prot1", "a"));
        assert_eq!(flat[1].written_tuple().unwrap(), &func("mouse", "prot2", "b"));
        assert_eq!(flat[2].relation, "XRef");
    }

    #[test]
    fn unknown_relations_pass_through() {
        let schema = bioinformatics_schema();
        let updates = vec![Update::insert("Mystery", Tuple::of_text(&["x"]), p(1))];
        let flat = flatten(&schema, &updates);
        assert_eq!(flat, updates);
    }

    #[test]
    fn flattening_is_idempotent() {
        let schema = bioinformatics_schema();
        let updates = vec![
            Update::insert("Function", func("rat", "prot1", "a"), p(1)),
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::insert("Function", func("mouse", "prot2", "x"), p(1)),
            Update::delete("Function", func("mouse", "prot2", "x"), p(1)),
            Update::delete("Function", func("dog", "prot9", "z"), p(1)),
        ];
        let once = flatten(&schema, &updates);
        let twice = flatten(&schema, &once);
        assert_eq!(once, twice);
    }
}
