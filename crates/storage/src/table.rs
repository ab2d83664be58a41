//! A single relation: rows hashed by primary key.

use crate::error::{Result, StorageError};
use orchestra_model::{KeyValue, RelationSchema, Tuple};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt;

/// A relation instance: rows indexed by primary key.
///
/// Rows live in a hash table keyed by [`KeyValue`], whose hash is the one the
/// key carries, so a probe hashes eight bytes and compares values only on a
/// hash match. The table has no order of its own: [`Table::iter`],
/// [`Table::rows`] and `Debug` sort by key, so whatever reads rows out sees
/// them in key order whatever order they went in.
#[derive(Clone, PartialEq, Eq)]
pub struct Table {
    schema: RelationSchema,
    rows: FxHashMap<KeyValue, Tuple>,
}

impl Table {
    /// Creates an empty table for the given relation schema.
    pub fn new(schema: RelationSchema) -> Self {
        Table { schema, rows: FxHashMap::default() }
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
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows.into_iter()
    }

    /// All rows, in primary-key order.
    pub fn rows(&self) -> Vec<Tuple> {
        self.iter().map(|(_, row)| row.clone()).collect()
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
    /// key would be unreachable through its own. When a row equal to `tuple`
    /// is already under `key` the call is a no-op and checks nothing.
    pub fn insert_keyed(&mut self, key: &KeyValue, tuple: &Tuple) -> Result<()> {
        // A row equal to `tuple` passed the checks when it went in.
        self.insert_unless_present(key, tuple).map(drop)
    }

    /// Inserts `tuple` under `key` unless it is there already (`Ok(false)`,
    /// with nothing checked), in one probe of the row map.
    pub(crate) fn insert_unless_present(&mut self, key: &KeyValue, tuple: &Tuple) -> Result<bool> {
        match self.rows.entry(key.clone()) {
            Entry::Occupied(row) if row.get() == tuple => Ok(false),
            slot => {
                self.schema.validate_tuple(tuple)?;
                assert!(self.schema.is_key_of(key, tuple), "{key} is not the key of {tuple}");
                match slot {
                    Entry::Occupied(_) => Err(duplicate_key(&self.schema, key)),
                    Entry::Vacant(slot) => {
                        slot.insert(tuple.clone());
                        Ok(true)
                    }
                }
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
        expect_row(&self.schema, self.rows.get(key), tuple)?;
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
        expect_row(&self.schema, self.rows.get(from_key), from)?;
        let moves = to_key != from_key;
        if moves && self.rows.get(to_key).is_some_and(|other| other != to) {
            return Err(duplicate_key(&self.schema, to_key));
        }
        if moves {
            self.rows.remove(from_key);
            self.rows.insert(to_key.clone(), to.clone());
        } else if let Some(row) = self.rows.get_mut(from_key) {
            *row = to.clone();
        }
        Ok(())
    }

    /// [`Table::modify_keyed`] for a modification that keeps `key`, unless
    /// the table already shows its effect: `to` is in place and `from` is
    /// gone. Returns `Ok(false)` then, without validating anything;
    /// otherwise validates `from` and `to` (as [`orchestra_model::Update`]'s
    /// own check does) and replaces the row, `Ok(true)`, or fails as
    /// `modify_keyed` would. The row map is probed once.
    ///
    /// # Panics
    /// Panics if `key` is not the key of `to`.
    pub(crate) fn modify_in_place_unless_satisfied(
        &mut self,
        key: &KeyValue,
        from: &Tuple,
        to: &Tuple,
    ) -> Result<bool> {
        let row = self.rows.get_mut(key);
        if row.as_deref().is_some_and(|row| row == to && row != from) {
            return Ok(false);
        }
        self.schema.validate_tuple(from)?;
        self.schema.validate_tuple(to)?;
        assert!(self.schema.is_key_of(key, to), "{key} is not the key of {to}");
        expect_row(&self.schema, row.as_deref(), from)?;
        if let Some(row) = row {
            *row = to.clone();
        }
        Ok(true)
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

/// The row a table holds under some key (`row`) must be exactly `tuple`.
fn expect_row(schema: &RelationSchema, row: Option<&Tuple>, tuple: &Tuple) -> Result<()> {
    match row {
        None => Err(StorageError::MissingTuple {
            relation: schema.name().to_owned(),
            tuple: tuple.to_string(),
        }),
        Some(existing) if existing != tuple => Err(StorageError::StaleTuple {
            relation: schema.name().to_owned(),
            expected: tuple.to_string(),
            found: existing.to_string(),
        }),
        Some(_) => Ok(()),
    }
}

/// Another row already holds `key`.
fn duplicate_key(schema: &RelationSchema, key: &KeyValue) -> StorageError {
    StorageError::DuplicateKey { relation: schema.name().to_owned(), key: key.to_string() }
}

/// The derived form, `Table { schema, rows: {key: row, ..} }`, with the rows
/// in key order.
impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct InKeyOrder<'a>(&'a Table);
        impl fmt::Debug for InKeyOrder<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("rows", &InKeyOrder(self))
            .finish()
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
