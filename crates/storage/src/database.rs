//! A database instance: a set of tables conforming to a schema, with update
//! application, constraint enforcement and snapshots.

use crate::error::Result;
use crate::table::Table;
use orchestra_model::{
    InstanceView, KeyValue, NetUpdates, Schema, Transaction, Tuple, Update, UpdateOp,
};
use std::collections::BTreeMap;

/// A participant's database instance (or any relational instance conforming
/// to a [`Schema`]).
///
/// `Database` enforces primary keys structurally (through [`Table`]) and the
/// schema's declared [`orchestra_model::Constraint`]s on every applied update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    schema: Schema,
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty instance of the given schema.
    pub fn new(schema: Schema) -> Self {
        let tables =
            schema.relations().map(|r| (r.name().to_owned(), Table::new(r.clone()))).collect();
        Database { schema, tables }
    }

    /// The schema this instance conforms to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Access a table by relation name.
    pub fn table(&self, relation: &str) -> Result<&Table> {
        self.tables
            .get(relation)
            .ok_or_else(|| orchestra_model::ModelError::UnknownRelation(relation.to_owned()).into())
    }

    /// Mutable access to a table by relation name.
    pub fn table_mut(&mut self, relation: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(relation)
            .ok_or_else(|| orchestra_model::ModelError::UnknownRelation(relation.to_owned()).into())
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Returns true if every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0
    }

    /// Checks whether a single update could be applied to the current state
    /// without violating primary keys or naming absent/stale tuples.
    /// Integrity constraints are checked separately by
    /// [`Database::check_constraints`].
    pub fn is_compatible(&self, update: &Update) -> bool {
        let Ok(table) = self.table(&update.relation) else { return false };
        match &update.op {
            UpdateOp::Insert(t) => table.can_insert(t),
            UpdateOp::Delete(t) => table.can_delete(t),
            UpdateOp::Modify { from, to } => table.can_modify(from, to),
        }
    }

    /// [`Database::is_compatible`] for a caller that already holds the keys
    /// the update touches, as [`NetUpdates::iter`] hands them out.
    pub fn is_compatible_keyed(&self, update: &Update, keys: &[KeyValue]) -> bool {
        let (Some(table), Some(first), Some(last)) =
            (self.tables.get(update.relation.as_str()), keys.first(), keys.last())
        else {
            return false;
        };
        match &update.op {
            UpdateOp::Insert(t) => table.can_insert_keyed(first, t),
            UpdateOp::Delete(t) => table.can_delete_keyed(first, t),
            UpdateOp::Modify { from, to } => table.can_modify_keyed(first, from, last, to),
        }
    }

    /// Returns true if the state already shows the update's effect: the
    /// inserted tuple is present, nothing is left under the deleted key, or
    /// the replacement is in place and the replaced tuple is gone. `keys` are
    /// the keys the update touches ([`NetUpdates::iter`]).
    pub fn already_satisfied(&self, update: &Update, keys: &[KeyValue]) -> bool {
        let table = self.tables.get(update.relation.as_str());
        let row = |key: Option<&KeyValue>| table?.get(key?);
        match &update.op {
            UpdateOp::Insert(t) => row(keys.first()) == Some(t),
            UpdateOp::Delete(_) => row(keys.first()).is_none(),
            UpdateOp::Modify { from, to } => {
                row(keys.first()) != Some(from) && row(keys.last()) == Some(to)
            }
        }
    }

    /// Checks the schema's declared constraints against applying `update` to
    /// the current state.
    pub fn check_constraints(&self, update: &Update) -> Result<()> {
        for c in self.schema.constraints() {
            c.check_update(&self.schema, self, update)?;
        }
        Ok(())
    }

    /// Applies a single update, enforcing primary keys and declared
    /// constraints. On error the instance is unchanged.
    pub fn apply_update(&mut self, update: &Update) -> Result<()> {
        // Validated first: the key of a malformed tuple cannot be taken.
        update.validate(&self.schema)?;
        let rel = self.schema.relation(&update.relation)?;
        let (first, last) = match &update.op {
            UpdateOp::Insert(t) | UpdateOp::Delete(t) => (rel.key_of(t), None),
            UpdateOp::Modify { from, to } => (rel.key_of(from), Some(rel.key_of(to))),
        };
        self.apply_validated(update, &first, last.as_ref().unwrap_or(&first))
    }

    /// [`Database::apply_update`] for a caller that already holds the keys
    /// the update touches ([`NetUpdates::iter`]); with none handed over, they
    /// are derived.
    pub fn apply_keyed(&mut self, update: &Update, keys: &[KeyValue]) -> Result<()> {
        let (Some(first), Some(last)) = (keys.first(), keys.last()) else {
            return self.apply_update(update);
        };
        update.validate(&self.schema)?;
        self.apply_validated(update, first, last)
    }

    /// Applies an update that [`Update::validate`] has passed, given the key
    /// of the tuple it reads (or inserts) and the key of the tuple it writes.
    fn apply_validated(
        &mut self,
        update: &Update,
        first: &KeyValue,
        last: &KeyValue,
    ) -> Result<()> {
        self.check_constraints(update)?;
        let table = self.table_mut(&update.relation)?;
        match &update.op {
            UpdateOp::Insert(t) => table.insert_keyed(first, t),
            UpdateOp::Delete(t) => table.delete_keyed(first, t),
            UpdateOp::Modify { from, to } => table.modify_keyed(first, from, last, to),
        }
    }

    /// Applies `update` unless the state already shows its effect: what
    /// [`Database::already_satisfied`] and then [`Database::apply_keyed`] do,
    /// in one step. Returns `Ok(false)` for a satisfied effect, `Ok(true)`
    /// for an applied update, and otherwise `apply_keyed`'s error with the
    /// instance unchanged.
    ///
    /// An insert and a modification that keeps its key (the updates replay
    /// and reconciliation apply) look the table up once, validate once and
    /// probe the row map once. The order of the two steps holds: a satisfied
    /// effect is skipped before anything is validated, and validation comes
    /// before a key conflict. Every other case takes the two steps: a
    /// deletion, a modification that moves a tuple to another key, a schema
    /// with declared constraints (they read the instance before the row is
    /// written), a relation with no table, and no keys handed over.
    pub fn apply_unless_satisfied(&mut self, update: &Update, keys: &[KeyValue]) -> Result<bool> {
        if let ([key], []) = (keys, self.schema.constraints()) {
            if let Some(table) = self.tables.get_mut(update.relation.as_str()) {
                match &update.op {
                    UpdateOp::Insert(t) => return table.insert_unless_present(key, t),
                    UpdateOp::Modify { from, to } => {
                        return table.modify_in_place_unless_satisfied(key, from, to)
                    }
                    UpdateOp::Delete(_) => {}
                }
            }
        }
        if self.already_satisfied(update, keys) {
            return Ok(false);
        }
        self.apply_keyed(update, keys).map(|()| true)
    }

    /// Applies a sequence of updates atomically: if any update fails, all
    /// previously applied updates of the sequence are rolled back and the
    /// error is returned.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<()> {
        for (done, u) in updates.iter().enumerate() {
            if let Err(e) = self.apply_update(u) {
                self.undo(updates[..done].iter());
                return Err(e);
            }
        }
        Ok(())
    }

    /// Applies all updates of a transaction atomically.
    pub fn apply_transaction(&mut self, txn: &Transaction) -> Result<()> {
        self.apply_all(txn.updates())
    }

    /// Applies a set of net updates atomically, skipping those whose effect
    /// is already present (the shared effects of extensions applied earlier).
    /// Returns how many were applied; if one fails, those this call applied
    /// are rolled back, the instance is as it was, and the error is returned.
    ///
    /// Whether an effect is present is asked before the constraints are, so
    /// an update the state already shows is never the one that fails.
    pub fn apply_net(&mut self, net: &NetUpdates) -> Result<usize> {
        let mut applied: Vec<&Update> = Vec::with_capacity(net.updates().len());
        for (update, keys) in net.iter() {
            match self.apply_unless_satisfied(update, keys) {
                Ok(true) => applied.push(update),
                Ok(false) => {}
                Err(e) => {
                    self.undo(applied.into_iter());
                    return Err(e);
                }
            }
        }
        Ok(applied.len())
    }

    /// Applies net updates one by one for replay, skipping those whose effect
    /// is already present and dropping those that no longer apply: replaying
    /// accepted transactions meets values that a later accepted transaction
    /// already superseded. Every update that applies stays applied.
    pub fn apply_net_lenient(&mut self, net: &NetUpdates) {
        for (update, keys) in net.iter() {
            let _ = self.apply_unless_satisfied(update, keys);
        }
    }

    /// Reverses updates this instance has just applied, last first, without
    /// consulting the constraints: every step restores a state that held.
    fn undo<'a>(&mut self, applied: impl DoubleEndedIterator<Item = &'a Update>) {
        for update in applied.rev() {
            let table = self.table_mut(&update.relation).expect("applied to this relation");
            match &update.op {
                UpdateOp::Insert(t) => table.delete(t),
                UpdateOp::Delete(t) => table.insert(t),
                UpdateOp::Modify { from, to } => table.modify(to, from),
            }
            .expect("the reverse of an applied update applies");
        }
    }

    /// A deep copy of the instance (the paper's published instance `I_i`).
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Returns true if the relation currently contains exactly this tuple.
    pub fn contains_tuple_exact(&self, relation: &str, tuple: &Tuple) -> bool {
        self.tables.get(relation).map(|t| t.contains(tuple)).unwrap_or(false)
    }

    /// The value stored under `(relation, key)`, if any. Used by the
    /// state-ratio metric, which compares per-key values across participants.
    pub fn value_at(&self, relation: &str, key: &KeyValue) -> Option<Tuple> {
        self.tables.get(relation).and_then(|t| t.get(key).cloned())
    }

    /// All `(key, tuple)` pairs of a relation, in key order.
    pub fn relation_contents(&self, relation: &str) -> Vec<(KeyValue, Tuple)> {
        self.tables
            .get(relation)
            .map(|t| t.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }
}

impl InstanceView for Database {
    fn get_by_key(&self, relation: &str, key: &KeyValue) -> Option<Tuple> {
        self.tables.get(relation).and_then(|t| t.get(key).cloned())
    }

    fn contains_tuple(&self, relation: &str, tuple: &Tuple) -> bool {
        self.tables.get(relation).map(|t| t.contains(tuple)).unwrap_or(false)
    }

    fn scan(&self, relation: &str) -> Vec<Tuple> {
        self.tables.get(relation).map(Table::rows).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{flatten_keyed, Constraint, ParticipantId};
    use std::sync::Arc;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn db() -> Database {
        Database::new(bioinformatics_schema())
    }

    #[test]
    fn fresh_instance_is_empty() {
        let d = db();
        assert!(d.is_empty());
        assert_eq!(d.total_tuples(), 0);
        assert!(d.table("Function").is_ok());
        assert!(d.table("Missing").is_err());
    }

    #[test]
    fn apply_insert_delete_modify() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "cell-metab"), p(3)))
            .unwrap();
        d.apply_update(&Update::modify(
            "Function",
            func("rat", "prot1", "cell-metab"),
            func("rat", "prot1", "immune"),
            p(3),
        ))
        .unwrap();
        assert!(d.contains_tuple("Function", &func("rat", "prot1", "immune")));
        d.apply_update(&Update::delete("Function", func("rat", "prot1", "immune"), p(3))).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn incompatible_updates_detected() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(3))).unwrap();
        let divergent = Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2));
        assert!(!d.is_compatible(&divergent));
        assert!(d.apply_update(&divergent).is_err());
        let identical = Update::insert("Function", func("rat", "prot1", "immune"), p(2));
        assert!(d.is_compatible(&identical));
        let missing_delete = Update::delete("Function", func("dog", "prot9", "z"), p(2));
        assert!(!d.is_compatible(&missing_delete));
        let unknown_rel = Update::insert("Nope", func("a", "b", "c"), p(2));
        assert!(!d.is_compatible(&unknown_rel));
    }

    #[test]
    fn apply_all_is_atomic() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let batch = vec![
            Update::insert("Function", func("mouse", "prot2", "immune"), p(1)),
            // This one fails: divergent insert over existing key.
            Update::insert("Function", func("rat", "prot1", "cell-resp"), p(1)),
        ];
        assert!(d.apply_all(&batch).is_err());
        // The first update of the batch must have been rolled back.
        assert!(!d.contains_tuple("Function", &func("mouse", "prot2", "immune")));
        assert_eq!(d.total_tuples(), 1);
    }

    #[test]
    fn apply_all_rolls_back_modifies() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "a"), p(1))).unwrap();
        let batch = vec![
            Update::modify("Function", func("rat", "prot1", "a"), func("rat", "prot1", "b"), p(1)),
            Update::delete("Function", func("zebra", "prot9", "zzz"), p(1)),
        ];
        assert!(d.apply_all(&batch).is_err());
        assert!(d.contains_tuple("Function", &func("rat", "prot1", "a")));
    }

    #[test]
    fn apply_transaction_applies_every_update() {
        let mut d = db();
        let txn = Transaction::from_parts(
            p(2),
            0,
            vec![
                Update::insert("Function", func("mouse", "prot2", "immune"), p(2)),
                Update::insert("Function", func("rat", "prot1", "cell-resp"), p(2)),
            ],
        )
        .unwrap();
        d.apply_transaction(&txn).unwrap();
        assert_eq!(d.total_tuples(), 2);
    }

    #[test]
    fn constraints_are_enforced_on_apply() {
        let mut d = Database::new(referencing_schema());
        let xref =
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "genbank", "ACC1"]), p(1));
        assert!(d.apply_update(&xref).is_err());
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        assert!(d.apply_update(&xref).is_ok());
    }

    fn referencing_schema() -> Schema {
        let mut schema = bioinformatics_schema();
        schema
            .add_constraint(Constraint::ForeignKey {
                relation: "XRef".into(),
                columns: vec!["organism".into(), "protein".into()],
                ref_relation: "Function".into(),
                ref_columns: vec!["organism".into(), "protein".into()],
            })
            .unwrap();
        schema
    }

    #[test]
    fn apply_net_skips_present_effects_and_counts_the_rest() {
        let schema = bioinformatics_schema();
        let mut d = Database::new(schema.clone());
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let net = flatten_keyed(
            &schema,
            [&Arc::new(vec![
                // Already there, already gone, already replaced: all skipped.
                Update::insert("Function", func("rat", "prot1", "immune"), p(2)),
                Update::delete("Function", func("dog", "prot9", "z"), p(2)),
                Update::insert("Function", func("mouse", "prot2", "a"), p(2)),
                Update::insert("Mystery", func("x", "y", "z"), p(2)),
            ])],
        );
        // The unknown relation's insert is the one that fails, after one
        // update was applied: nothing of the call survives.
        let before = d.clone();
        assert!(d.apply_net(&net).is_err());
        assert_eq!(d, before);

        let net = flatten_keyed(&schema, [&Arc::new(net.updates()[..3].to_vec())]);
        assert_eq!(d.apply_net(&net).unwrap(), 1);
        assert_eq!(d.apply_net(&net).unwrap(), 0, "every effect is present now");
        assert_eq!(d.total_tuples(), 2);
    }

    #[test]
    fn apply_net_leaves_the_pre_image_when_the_kth_update_breaks_the_foreign_key() {
        let schema = referencing_schema();
        let mut d = Database::new(schema.clone());
        for u in [
            Update::insert("Function", func("rat", "prot1", "immune"), p(1)),
            Update::insert("Function", func("rat", "prot2", "immune"), p(1)),
            Update::insert("XRef", Tuple::of_text(&["rat", "prot2", "genbank", "ACC2"]), p(1)),
        ] {
            d.apply_update(&u).unwrap();
        }
        let before = d.clone();
        let net = flatten_keyed(
            &schema,
            [&Arc::new(vec![
                Update::insert("Function", func("mouse", "prot2", "a"), p(2)),
                Update::modify(
                    "Function",
                    func("rat", "prot1", "immune"),
                    func("rat", "prot3", "immune"),
                    p(2),
                ),
                Update::delete("XRef", Tuple::of_text(&["rat", "prot2", "genbank", "ACC2"]), p(2)),
                Update::delete("Function", func("rat", "prot2", "immune"), p(2)),
                // No `Function` row for (dog, prot9): the fifth update fails.
                Update::insert("XRef", Tuple::of_text(&["dog", "prot9", "genbank", "ACC1"]), p(2)),
            ])],
        );
        let err = d.apply_net(&net).unwrap_err();
        assert!(matches!(err, StorageError::Model(_)), "a constraint violation: {err}");
        assert_eq!(d, before);
    }

    #[test]
    fn keyed_check_and_apply_take_the_keys_the_flattening_hands_on() {
        let schema = bioinformatics_schema();
        let mut d = Database::new(schema.clone());
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "a"), p(1))).unwrap();
        let net = flatten_keyed(
            &schema,
            [&Arc::new(vec![
                Update::modify(
                    "Function",
                    func("rat", "prot1", "a"),
                    func("rat", "prot2", "a"),
                    p(2),
                ),
                Update::insert("Function", func("rat", "prot3", "c"), p(2)),
                Update::delete("Function", func("rat", "prot4", "d"), p(2)),
            ])],
        );
        for (update, keys) in net.iter() {
            assert_eq!(d.is_compatible_keyed(update, keys), d.is_compatible(update));
            let mut unkeyed = d.clone();
            assert_eq!(d.apply_keyed(update, keys).is_ok(), unkeyed.apply_update(update).is_ok());
            assert_eq!(d, unkeyed);
        }
        assert!(d.contains_tuple_exact("Function", &func("rat", "prot2", "a")));
        assert_eq!(d.total_tuples(), 2);
        // With no key handed over, the keys are derived.
        let late = Update::insert("Function", func("rat", "prot5", "e"), p(2));
        d.apply_keyed(&late, &[]).unwrap();
        assert_eq!(d.total_tuples(), 3);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let snap = d.snapshot();
        d.apply_update(&Update::delete("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        assert!(snap.contains_tuple("Function", &func("rat", "prot1", "immune")));
        assert!(d.is_empty());
    }

    #[test]
    fn value_at_and_relation_contents() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let key = KeyValue::of_text(&["rat", "prot1"]);
        assert_eq!(d.value_at("Function", &key).unwrap(), func("rat", "prot1", "immune"));
        assert!(d.value_at("Function", &KeyValue::of_text(&["x", "y"])).is_none());
        let contents = d.relation_contents("Function");
        assert_eq!(contents.len(), 1);
        assert_eq!(contents[0].0, key);
    }

    #[test]
    fn instance_view_impl() {
        let mut d = db();
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        let view: &dyn InstanceView = &d;
        assert!(view.contains_tuple("Function", &func("rat", "prot1", "immune")));
        assert_eq!(view.scan("Function").len(), 1);
        assert_eq!(view.scan("XRef").len(), 0);
        assert!(view.get_by_key("Function", &KeyValue::of_text(&["rat", "prot1"])).is_some());
    }
}
