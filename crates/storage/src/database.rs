//! A database instance: a set of tables conforming to a schema, with update
//! application, constraint enforcement and snapshots.

use crate::error::Result;
use crate::table::Table;
use orchestra_model::{InstanceView, KeyValue, Schema, Transaction, Tuple, Update, UpdateOp};
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
        update.validate(&self.schema)?;
        self.check_constraints(update)?;
        let table = self.table_mut(&update.relation)?;
        match &update.op {
            UpdateOp::Insert(t) => table.insert(t.clone()),
            UpdateOp::Delete(t) => table.delete(t),
            UpdateOp::Modify { from, to } => table.modify(from, to.clone()),
        }
    }

    /// Applies a sequence of updates atomically: if any update fails, all
    /// previously applied updates of the sequence are rolled back and the
    /// error is returned.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<()> {
        let mut undo: Vec<Update> = Vec::with_capacity(updates.len());
        for u in updates {
            match self.apply_update(u) {
                Ok(()) => undo.push(Self::inverse(u)),
                Err(e) => {
                    for inv in undo.iter().rev() {
                        // Undo operations reverse successful forward
                        // operations, so they cannot fail.
                        self.apply_unchecked(inv).expect("undo of applied update");
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Applies all updates of a transaction atomically.
    pub fn apply_transaction(&mut self, txn: &Transaction) -> Result<()> {
        self.apply_all(txn.updates())
    }

    /// Applies an update without constraint checking (used for undo).
    fn apply_unchecked(&mut self, update: &Update) -> Result<()> {
        let table = self.table_mut(&update.relation)?;
        match &update.op {
            UpdateOp::Insert(t) => table.insert(t.clone()),
            UpdateOp::Delete(t) => table.delete(t),
            UpdateOp::Modify { from, to } => table.modify(from, to.clone()),
        }
    }

    /// The inverse of an update (used to roll back partially applied
    /// sequences).
    fn inverse(update: &Update) -> Update {
        match &update.op {
            UpdateOp::Insert(t) => {
                Update::delete(update.relation.clone(), t.clone(), update.origin)
            }
            UpdateOp::Delete(t) => {
                Update::insert(update.relation.clone(), t.clone(), update.origin)
            }
            UpdateOp::Modify { from, to } => {
                Update::modify(update.relation.clone(), to.clone(), from.clone(), update.origin)
            }
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

    /// Returns true if some row exists under the primary key of `tuple`
    /// (whatever its non-key attributes are).
    pub fn key_present(&self, relation: &str, tuple: &Tuple) -> bool {
        self.tables
            .get(relation)
            .map(|t| t.get(&t.schema().key_of(tuple)).is_some())
            .unwrap_or(false)
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
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{Constraint, ParticipantId};

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
        let mut schema = bioinformatics_schema();
        schema
            .add_constraint(Constraint::ForeignKey {
                relation: "XRef".into(),
                columns: vec!["organism".into(), "protein".into()],
                ref_relation: "Function".into(),
                ref_columns: vec!["organism".into(), "protein".into()],
            })
            .unwrap();
        let mut d = Database::new(schema);
        let xref =
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "genbank", "ACC1"]), p(1));
        assert!(d.apply_update(&xref).is_err());
        d.apply_update(&Update::insert("Function", func("rat", "prot1", "immune"), p(1))).unwrap();
        assert!(d.apply_update(&xref).is_ok());
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
