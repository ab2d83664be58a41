//! Tuples and key values.

use crate::value::Value;
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A relational tuple: an ordered list of attribute values.
///
/// Tuples are schema-agnostic; conformance to a particular
/// [`crate::schema::RelationSchema`] is checked by
/// [`crate::schema::RelationSchema::validate_tuple`].
///
/// The values live in one shared buffer, so cloning a tuple — into an
/// instance row, out of one, into a constraint check — bumps a reference
/// count: a participant's row shares the buffer of the published update that
/// wrote it. Equality, ordering, hashing and `Debug` are the slice's, the same
/// as those of the values as a `Vec`; equality skips reading one shared
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from a list of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values: values.into() }
    }

    /// Creates a tuple of text values — a convenience for the bioinformatics
    /// workload, where every attribute is text.
    pub fn of_text<S: AsRef<str>>(values: &[S]) -> Self {
        Tuple { values: values.iter().map(|s| Value::text(s.as_ref())).collect() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The attribute values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The attribute at the given column index.
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// Returns a copy with the attribute at `index` replaced by `value`.
    pub fn with_value(&self, index: usize, value: Value) -> Tuple {
        let mut values = self.values.to_vec();
        values[index] = value;
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// The value of a primary key: the key attributes of a tuple, in key order.
///
/// Key values identify the "antecedent data value" of the paper's conflict
/// definition — two updates that write the same key value for a relation are
/// candidates for conflicting.
///
/// A key carries the Fx hash of its values, computed once when it is made:
/// [`Hash`] writes only that word, so every hash table keyed by keys (the
/// flattening's chains, the conflict and own-delta indexes, the dirty set)
/// hashes eight bytes instead of walking the strings, and equality compares
/// the hashes before the values. Ordering, `Debug` and `Display` are over the
/// values alone. Whatever hasher a table uses, keys that collide under Fx
/// collide in it.
///
/// The values live in one shared buffer, so cloning a key — into an instance
/// row, the dirty set — bumps a reference count: every participant's row
/// under a key that a published transaction's flattening derived shares that
/// flattening's buffer. The key is as large as the `Vec` it replaced (24
/// bytes).
#[derive(Clone)]
pub struct KeyValue {
    values: Arc<[Value]>,
    hash: u64,
}

impl KeyValue {
    /// Creates a key value from its component values.
    pub fn from_values(values: Vec<Value>) -> Self {
        KeyValue::collect(values)
    }

    /// A key of `values`, collected straight into its shared buffer.
    pub(crate) fn collect(values: impl IntoIterator<Item = Value>) -> Self {
        let values: Arc<[Value]> = values.into_iter().collect();
        let mut hasher = FxHasher::default();
        values.hash(&mut hasher);
        KeyValue { values, hash: hasher.finish() }
    }

    /// Creates a key value of text components.
    pub fn of_text<S: AsRef<str>>(values: &[S]) -> Self {
        KeyValue::from_values(values.iter().map(|s| Value::text(s.as_ref())).collect())
    }

    /// The key component values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of key components.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl PartialEq for KeyValue {
    fn eq(&self, other: &Self) -> bool {
        // Two holders of one buffer are equal without reading it.
        self.hash == other.hash
            && (Arc::ptr_eq(&self.values, &other.values) || self.values == other.values)
    }
}

impl Eq for KeyValue {}

impl Hash for KeyValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values.cmp(&other.values)
    }
}

impl fmt::Debug for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyValue").field("values", &self.values).finish()
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::of_text(&["rat", "prot1", "immune"]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::text("rat")));
        assert_eq!(t.get(3), None);
        assert_eq!(t.values()[2], Value::text("immune"));
    }

    #[test]
    fn with_value_replaces_single_attribute() {
        let t = Tuple::of_text(&["rat", "prot1", "cell-metab"]);
        let t2 = t.with_value(2, Value::text("immune"));
        assert_eq!(t.get(2), Some(&Value::text("cell-metab")));
        assert_eq!(t2.get(2), Some(&Value::text("immune")));
        assert_eq!(t2.get(0), Some(&Value::text("rat")));
    }

    #[test]
    fn display_formats() {
        let t = Tuple::of_text(&["mouse", "prot2"]);
        assert_eq!(t.to_string(), "(mouse, prot2)");
        let k = KeyValue::of_text(&["mouse", "prot2"]);
        assert_eq!(k.to_string(), "[mouse, prot2]");
    }

    #[test]
    fn key_value_equality_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(KeyValue::of_text(&["rat", "prot1"]));
        assert!(set.contains(&KeyValue::of_text(&["rat", "prot1"])));
        assert!(!set.contains(&KeyValue::of_text(&["rat", "prot2"])));
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Value lists that differ in length, in one value, in type, and in where
    /// one string ends and the next begins.
    fn value_matrix() -> Vec<Vec<Value>> {
        vec![
            vec![],
            vec![Value::text("rat")],
            vec![Value::text("rat"), Value::text("prot1")],
            vec![Value::text("rat"), Value::text("prot2")],
            vec![Value::text("ratprot1")],
            vec![Value::int(1), Value::Null],
            vec![Value::int(1)],
            vec![Value::Float(f64::NAN), Value::Bool(true)],
        ]
    }

    #[test]
    fn a_key_is_its_values_with_their_hash_and_stays_three_words() {
        let keys = value_matrix();
        for a in &keys {
            for b in &keys {
                let (ka, kb) = (KeyValue::from_values(a.clone()), KeyValue::from_values(b.clone()));
                assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                if ka == kb {
                    assert_eq!(hash_of(&ka), hash_of(&kb));
                }
            }
        }
        // Built from separate buffers, the same text is the same key.
        let owned = KeyValue::from_values(vec![Value::text(String::from("rat"))]);
        assert_eq!(owned, KeyValue::of_text(&["rat"]));
        assert_eq!(hash_of(&owned), hash_of(&KeyValue::of_text(&["rat"])));
        assert_eq!(format!("{owned:?}"), r#"KeyValue { values: [Text("rat")] }"#);
        assert_eq!(std::mem::size_of::<KeyValue>(), 24);
        // A clone shares the buffer.
        assert!(Arc::ptr_eq(&owned.values, &owned.clone().values));
    }

    #[test]
    fn a_tuple_is_its_values_as_a_vec_in_a_shared_buffer() {
        let rows = value_matrix();
        for a in &rows {
            let ta = Tuple::new(a.clone());
            assert_eq!(hash_of(&ta), hash_of(a), "{a:?}");
            assert_eq!(format!("{ta:?}"), format!("Tuple {{ values: {a:?} }}"));
            for b in &rows {
                let tb = Tuple::new(b.clone());
                assert_eq!(ta == tb, a == b, "{a:?} vs {b:?}");
                assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        let row = Tuple::of_text(&["rat", "prot1", "immune"]);
        assert_eq!(
            format!("{row:?}"),
            r#"Tuple { values: [Text("rat"), Text("prot1"), Text("immune")] }"#
        );
        assert!(std::mem::size_of::<Tuple>() <= 24);
        // A clone shares the buffer.
        assert!(Arc::ptr_eq(&row.values, &row.clone().values));
    }

    #[test]
    fn tuples_are_ordered_lexicographically() {
        let a = Tuple::of_text(&["a", "b"]);
        let b = Tuple::of_text(&["a", "c"]);
        assert!(a < b);
    }
}
