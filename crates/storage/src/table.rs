//! A single relation: primary-key-indexed rows plus optional secondary
//! indexes.

use crate::error::{Result, StorageError};
use orchestra_model::{KeyValue, RelationSchema, Tuple, Value};
use rustc_hash::FxHashMap;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A non-unique secondary index over a subset of columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SecondaryIndex {
    /// Column indexes this index covers, in order.
    columns: Vec<usize>,
    /// Index data: projected values -> primary keys of matching rows.
    entries: BTreeMap<Vec<Value>, Vec<KeyValue>>,
}

impl SecondaryIndex {
    fn new(columns: Vec<usize>) -> Self {
        SecondaryIndex { columns, entries: BTreeMap::new() }
    }

    fn project(&self, tuple: &Tuple) -> Vec<Value> {
        tuple.project(&self.columns)
    }

    fn add(&mut self, tuple: &Tuple, key: &KeyValue) {
        self.entries.entry(self.project(tuple)).or_default().push(key.clone());
    }

    fn remove(&mut self, tuple: &Tuple, key: &KeyValue) {
        let proj = self.project(tuple);
        if let Some(keys) = self.entries.get_mut(&proj) {
            keys.retain(|k| k != key);
            if keys.is_empty() {
                self.entries.remove(&proj);
            }
        }
    }
}

/// A relation instance: rows indexed by primary key, plus any number of
/// named secondary indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    schema: RelationSchema,
    rows: BTreeMap<KeyValue, Tuple>,
    indexes: FxHashMap<String, SecondaryIndex>,
}

impl Table {
    /// Creates an empty table for the given relation schema.
    pub fn new(schema: RelationSchema) -> Self {
        Table { schema, rows: BTreeMap::new(), indexes: FxHashMap::default() }
    }

    /// The relation schema of this table.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns true if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up a row by primary key.
    pub fn get(&self, key: &KeyValue) -> Option<&Tuple> {
        self.rows.get(key)
    }

    /// Returns true if the table contains exactly this tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.rows.get(&self.schema.key_of(tuple)) == Some(tuple)
    }

    /// Iterates over all rows in primary-key order.
    pub fn iter(&self) -> impl Iterator<Item = (&KeyValue, &Tuple)> {
        self.rows.iter()
    }

    /// All rows, in primary-key order.
    pub fn rows(&self) -> Vec<Tuple> {
        self.rows.values().cloned().collect()
    }

    /// Declares a named secondary index over the given columns. Existing rows
    /// are indexed immediately.
    pub fn create_index(&mut self, name: impl Into<String>, columns: &[&str]) -> Result<()> {
        let col_idx: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect::<std::result::Result<_, _>>()?;
        let mut index = SecondaryIndex::new(col_idx);
        for (key, tuple) in &self.rows {
            index.add(tuple, key);
        }
        self.indexes.insert(name.into(), index);
        Ok(())
    }

    /// Looks up rows via a secondary index. Returns `None` if the index does
    /// not exist; otherwise the matching tuples (possibly empty).
    pub fn index_lookup(&self, index: &str, values: &[Value]) -> Option<Vec<Tuple>> {
        let idx = self.indexes.get(index)?;
        let keys = idx.entries.get(values).cloned().unwrap_or_default();
        Some(keys.iter().filter_map(|k| self.rows.get(k).cloned()).collect())
    }

    /// Validates and inserts a tuple. Inserting a tuple identical to one
    /// already present is a no-op; inserting a different tuple under an
    /// existing key is a [`StorageError::DuplicateKey`].
    pub fn insert(&mut self, tuple: &Tuple) -> Result<()> {
        self.schema.validate_tuple(tuple)?;
        self.insert_keyed(&self.schema.key_of(tuple), tuple)
    }

    /// [`Table::insert`] for a caller that already holds the tuple's key.
    ///
    /// # Panics
    /// Panics if `key` is not the key of `tuple`: a row filed under another
    /// key would be unreachable through its own.
    pub fn insert_keyed(&mut self, key: &KeyValue, tuple: &Tuple) -> Result<()> {
        self.schema.validate_tuple(tuple)?;
        assert!(self.schema.is_key_of(key, tuple), "{key} is not the key of {tuple}");
        match self.rows.entry(key.clone()) {
            Entry::Occupied(row) if row.get() == tuple => Ok(()),
            Entry::Occupied(_) => Err(StorageError::DuplicateKey {
                relation: self.schema.name().to_owned(),
                key: key.to_string(),
            }),
            Entry::Vacant(slot) => {
                for idx in self.indexes.values_mut() {
                    idx.add(tuple, key);
                }
                slot.insert(tuple.clone());
                Ok(())
            }
        }
    }

    /// Deletes the given tuple. The tuple named by the update must match the
    /// stored row exactly; deleting an absent tuple is
    /// [`StorageError::MissingTuple`] and deleting a row whose value has
    /// diverged is [`StorageError::StaleTuple`].
    pub fn delete(&mut self, tuple: &Tuple) -> Result<()> {
        self.delete_keyed(&self.schema.key_of(tuple), tuple)
    }

    /// [`Table::delete`] for a caller that already holds the tuple's key.
    pub fn delete_keyed(&mut self, key: &KeyValue, tuple: &Tuple) -> Result<()> {
        self.expect_row(key, tuple)?;
        for idx in self.indexes.values_mut() {
            idx.remove(tuple, key);
        }
        self.rows.remove(key);
        Ok(())
    }

    /// Replaces `from` with `to`. The `from` tuple must be present exactly;
    /// if the key changes, the new key must not collide with another row.
    pub fn modify(&mut self, from: &Tuple, to: &Tuple) -> Result<()> {
        self.schema.validate_tuple(to)?;
        self.modify_keyed(&self.schema.key_of(from), from, &self.schema.key_of(to), to)
    }

    /// [`Table::modify`] for a caller that already holds both tuples' keys.
    ///
    /// # Panics
    /// Panics if `to_key` is not the key of `to`.
    pub fn modify_keyed(
        &mut self,
        from_key: &KeyValue,
        from: &Tuple,
        to_key: &KeyValue,
        to: &Tuple,
    ) -> Result<()> {
        self.schema.validate_tuple(to)?;
        assert!(self.schema.is_key_of(to_key, to), "{to_key} is not the key of {to}");
        self.expect_row(from_key, from)?;
        let moves = to_key != from_key;
        if moves && self.rows.get(to_key).is_some_and(|other| other != to) {
            return Err(StorageError::DuplicateKey {
                relation: self.schema.name().to_owned(),
                key: to_key.to_string(),
            });
        }
        for idx in self.indexes.values_mut() {
            idx.remove(from, from_key);
            idx.add(to, to_key);
        }
        if moves {
            self.rows.remove(from_key);
            self.rows.insert(to_key.clone(), to.clone());
        } else if let Some(row) = self.rows.get_mut(from_key) {
            *row = to.clone();
        }
        Ok(())
    }

    /// The row under `key` must be exactly `tuple`.
    fn expect_row(&self, key: &KeyValue, tuple: &Tuple) -> Result<()> {
        match self.rows.get(key) {
            None => Err(StorageError::MissingTuple {
                relation: self.schema.name().to_owned(),
                tuple: tuple.to_string(),
            }),
            Some(existing) if existing != tuple => Err(StorageError::StaleTuple {
                relation: self.schema.name().to_owned(),
                expected: tuple.to_string(),
                found: existing.to_string(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// Checks whether an insertion of `tuple` would succeed, without applying
    /// it.
    pub fn can_insert(&self, tuple: &Tuple) -> bool {
        self.schema.validate_tuple(tuple).is_ok()
            && self.can_insert_keyed(&self.schema.key_of(tuple), tuple)
    }

    /// [`Table::can_insert`] for a caller that already holds the tuple's key.
    pub fn can_insert_keyed(&self, key: &KeyValue, tuple: &Tuple) -> bool {
        self.schema.validate_tuple(tuple).is_ok()
            && self.rows.get(key).map_or(true, |existing| existing == tuple)
    }

    /// Checks whether a deletion of `tuple` would succeed.
    pub fn can_delete(&self, tuple: &Tuple) -> bool {
        self.can_delete_keyed(&self.schema.key_of(tuple), tuple)
    }

    /// [`Table::can_delete`] for a caller that already holds the tuple's key.
    pub fn can_delete_keyed(&self, key: &KeyValue, tuple: &Tuple) -> bool {
        self.rows.get(key) == Some(tuple)
    }

    /// Checks whether replacing `from` with `to` would succeed.
    pub fn can_modify(&self, from: &Tuple, to: &Tuple) -> bool {
        self.schema.validate_tuple(to).is_ok()
            && self.can_modify_keyed(&self.schema.key_of(from), from, &self.schema.key_of(to), to)
    }

    /// [`Table::can_modify`] for a caller that already holds both tuples'
    /// keys.
    pub fn can_modify_keyed(
        &self,
        from_key: &KeyValue,
        from: &Tuple,
        to_key: &KeyValue,
        to: &Tuple,
    ) -> bool {
        self.schema.validate_tuple(to).is_ok()
            && self.rows.get(from_key) == Some(from)
            && (to_key == from_key || self.rows.get(to_key).map_or(true, |other| other == to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;

    fn function_table() -> Table {
        Table::new(bioinformatics_schema().relation("Function").unwrap().clone())
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    #[test]
    fn insert_get_and_contains() {
        let mut t = function_table();
        assert!(t.is_empty());
        t.insert(&func("rat", "prot1", "immune")).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.contains(&func("rat", "prot1", "immune")));
        assert!(!t.contains(&func("rat", "prot1", "cell-resp")));
        let key = KeyValue::of_text(&["rat", "prot1"]);
        assert_eq!(t.get(&key).unwrap(), &func("rat", "prot1", "immune"));
    }

    #[test]
    fn duplicate_inserts() {
        let mut t = function_table();
        t.insert(&func("rat", "prot1", "immune")).unwrap();
        // Identical insert is a no-op.
        t.insert(&func("rat", "prot1", "immune")).unwrap();
        assert_eq!(t.len(), 1);
        // Divergent insert under the same key is an error.
        let err = t.insert(&func("rat", "prot1", "cell-resp")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
    }

    #[test]
    fn delete_requires_exact_match() {
        let mut t = function_table();
        t.insert(&func("rat", "prot1", "immune")).unwrap();
        let missing = t.delete(&func("mouse", "prot2", "x")).unwrap_err();
        assert!(matches!(missing, StorageError::MissingTuple { .. }));
        let stale = t.delete(&func("rat", "prot1", "cell-resp")).unwrap_err();
        assert!(matches!(stale, StorageError::StaleTuple { .. }));
        t.delete(&func("rat", "prot1", "immune")).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn modify_in_place_and_key_change() {
        let mut t = function_table();
        t.insert(&func("rat", "prot1", "cell-metab")).unwrap();
        t.modify(&func("rat", "prot1", "cell-metab"), &func("rat", "prot1", "immune")).unwrap();
        assert!(t.contains(&func("rat", "prot1", "immune")));

        // Key-changing modify, as in the paper's X3:3.
        t.insert(&func("mouse", "prot2", "cell-resp")).unwrap();
        t.modify(&func("mouse", "prot2", "cell-resp"), &func("mouse", "prot3", "cell-resp"))
            .unwrap();
        assert!(t.get(&KeyValue::of_text(&["mouse", "prot2"])).is_none());
        assert!(t.contains(&func("mouse", "prot3", "cell-resp")));
    }

    #[test]
    fn modify_collision_detected() {
        let mut t = function_table();
        t.insert(&func("rat", "prot1", "a")).unwrap();
        t.insert(&func("rat", "prot2", "b")).unwrap();
        let err = t.modify(&func("rat", "prot1", "a"), &func("rat", "prot2", "c")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
    }

    #[test]
    fn modify_of_missing_or_stale_tuple_fails() {
        let mut t = function_table();
        assert!(matches!(
            t.modify(&func("rat", "prot1", "a"), &func("rat", "prot1", "b")),
            Err(StorageError::MissingTuple { .. })
        ));
        t.insert(&func("rat", "prot1", "x")).unwrap();
        assert!(matches!(
            t.modify(&func("rat", "prot1", "a"), &func("rat", "prot1", "b")),
            Err(StorageError::StaleTuple { .. })
        ));
    }

    #[test]
    fn can_apply_probes_match_apply_behaviour() {
        let mut t = function_table();
        t.insert(&func("rat", "prot1", "a")).unwrap();
        assert!(t.can_insert(&func("mouse", "prot2", "b")));
        assert!(t.can_insert(&func("rat", "prot1", "a")));
        assert!(!t.can_insert(&func("rat", "prot1", "z")));
        assert!(t.can_delete(&func("rat", "prot1", "a")));
        assert!(!t.can_delete(&func("rat", "prot1", "z")));
        assert!(t.can_modify(&func("rat", "prot1", "a"), &func("rat", "prot1", "b")));
        assert!(!t.can_modify(&func("rat", "prot1", "z"), &func("rat", "prot1", "b")));
        assert!(!t.can_insert(&Tuple::of_text(&["wrong-arity"])));
    }

    #[test]
    fn secondary_index_lookup() {
        let mut t = function_table();
        t.create_index("by_function", &["function"]).unwrap();
        t.insert(&func("rat", "prot1", "immune")).unwrap();
        t.insert(&func("mouse", "prot2", "immune")).unwrap();
        t.insert(&func("dog", "prot3", "cell-resp")).unwrap();
        let immune = t.index_lookup("by_function", &[Value::text("immune")]).unwrap();
        assert_eq!(immune.len(), 2);
        let none = t.index_lookup("by_function", &[Value::text("nothing")]).unwrap();
        assert!(none.is_empty());
        assert!(t.index_lookup("missing_index", &[Value::text("x")]).is_none());

        // Index is maintained across deletes and modifies.
        t.delete(&func("rat", "prot1", "immune")).unwrap();
        t.modify(&func("mouse", "prot2", "immune"), &func("mouse", "prot2", "cell-resp")).unwrap();
        let immune = t.index_lookup("by_function", &[Value::text("immune")]).unwrap();
        assert!(immune.is_empty());
        let resp = t.index_lookup("by_function", &[Value::text("cell-resp")]).unwrap();
        assert_eq!(resp.len(), 2);
    }

    #[test]
    fn index_on_unknown_column_is_an_error() {
        let mut t = function_table();
        assert!(t.create_index("bad", &["nope"]).is_err());
    }

    #[test]
    fn rows_are_returned_in_key_order() {
        let mut t = function_table();
        t.insert(&func("zebra", "prot9", "a")).unwrap();
        t.insert(&func("ant", "prot1", "b")).unwrap();
        let rows = t.rows();
        assert_eq!(rows[0], func("ant", "prot1", "b"));
        assert_eq!(rows[1], func("zebra", "prot9", "a"));
        assert_eq!(t.iter().count(), 2);
    }
}
