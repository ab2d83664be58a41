//! Tuples and key values.

use crate::value::Value;
use std::fmt;

/// A relational tuple: an ordered list of attribute values.
///
/// Tuples are schema-agnostic; conformance to a particular
/// [`crate::schema::RelationSchema`] is checked by
/// [`crate::schema::RelationSchema::validate_tuple`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from a list of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
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
        let mut values = self.values.clone();
        values[index] = value;
        Tuple { values }
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Projects the tuple onto the given column indexes, in the given order.
    pub fn project(&self, indexes: &[usize]) -> Vec<Value> {
        indexes.iter().map(|&i| self.values[i].clone()).collect()
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyValue {
    values: Vec<Value>,
}

impl KeyValue {
    /// Creates a key value from its component values.
    pub fn from_values(values: Vec<Value>) -> Self {
        KeyValue { values }
    }

    /// Creates a key value of text components.
    pub fn of_text<S: AsRef<str>>(values: &[S]) -> Self {
        KeyValue { values: values.iter().map(|s| Value::text(s.as_ref())).collect() }
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
    fn projection_preserves_order() {
        let t = Tuple::of_text(&["rat", "prot1", "immune"]);
        assert_eq!(t.project(&[2, 0]), vec![Value::text("immune"), Value::text("rat")]);
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

    #[test]
    fn tuples_are_ordered_lexicographically() {
        let a = Tuple::of_text(&["a", "b"]);
        let b = Tuple::of_text(&["a", "c"]);
        assert!(a < b);
    }

    #[test]
    fn into_values_round_trip() {
        let t = Tuple::new(vec![Value::int(1), Value::text("x")]);
        let vs = t.clone().into_values();
        assert_eq!(Tuple::from(vs), t);
    }
}
