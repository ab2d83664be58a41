//! Attribute values and value types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of an attribute value, used by [`crate::schema::ColumnDef`] to
/// declare column types and to validate tuples against a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A single attribute value.
///
/// `Value` provides total equality, ordering and hashing so that it can be
/// used as (part of) a key in indexes and conflict-detection hash tables.
/// Floating-point values are compared with [`f64::total_cmp`] and hashed by
/// their bit pattern, which makes `NaN == NaN` for the purposes of this data
/// model; that is the right semantics for key lookup even though it differs
/// from IEEE comparison.
#[derive(Debug, Clone)]
pub enum Value {
    /// The SQL-style NULL marker (absence of a value).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit floating point.
    Float(f64),
    /// UTF-8 text. The buffer is shared: cloning a text value — and so a
    /// tuple or a key holding one — bumps a reference count and copies no
    /// string. Equality, ordering and hashing go through the `str`, so they
    /// are those of the text, whoever holds the buffer.
    Text(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns the type of the value, or `None` for [`Value::Null`].
    fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Text(_) => Some(ValueType::Text),
            Value::Bool(_) => Some(ValueType::Bool),
        }
    }

    /// Returns true if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns true if the value conforms to the given type (NULL conforms to
    /// every type; nullability is checked separately by the schema).
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match self.value_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// Convenience constructor for text values.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// A rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Two holders of one buffer are equal without reading it.
            (Value::Text(a), Value::Text(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_within_types() {
        assert_eq!(Value::int(3), Value::int(3));
        assert_ne!(Value::int(3), Value::int(4));
        assert_eq!(Value::text("rat"), Value::from("rat"));
        assert_ne!(Value::text("rat"), Value::text("mouse"));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn equality_across_types_is_false() {
        assert_ne!(Value::int(1), Value::Bool(true));
        assert_ne!(Value::int(0), Value::Null);
        assert_ne!(Value::text("1"), Value::int(1));
    }

    #[test]
    fn nan_equals_nan_for_keying_purposes() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::int(42), Value::int(42)),
            (Value::text("prot1"), Value::text("prot1")),
            (Value::Bool(false), Value::Bool(false)),
            (Value::Float(2.5), Value::Float(2.5)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn ordering_is_total_and_type_bucketed() {
        let mut values = vec![
            Value::text("b"),
            Value::int(10),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
            Value::text("a"),
            Value::int(-2),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::int(-2),
                Value::int(10),
                Value::Float(1.5),
                Value::text("a"),
                Value::text("b"),
            ]
        );
    }

    #[test]
    fn conformance() {
        assert!(Value::int(1).conforms_to(ValueType::Int));
        assert!(!Value::int(1).conforms_to(ValueType::Text));
        assert!(Value::Null.conforms_to(ValueType::Text));
        assert!(Value::text("x").conforms_to(ValueType::Text));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::int(7).to_string(), "7");
        assert_eq!(Value::text("immune").to_string(), "immune");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(ValueType::Text.to_string(), "text");
    }

    #[test]
    fn text_clones_share_the_buffer_and_a_value_stays_three_words() {
        assert!(std::mem::size_of::<Value>() <= 24);
        let a = Value::text("cell-metabolism");
        let (Value::Text(x), Value::Text(y)) = (&a, &a.clone()) else { unreachable!() };
        assert!(Arc::ptr_eq(x, y));
        // Equality is the text's, not the buffer's.
        assert_eq!(a, Value::text(String::from("cell-metabolism")));
        assert_eq!(hash_of(&a), hash_of(&Value::from("cell-metabolism")));
    }

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert!(!Value::int(0).is_null());
    }
}
