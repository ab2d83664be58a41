//! Interned relation names.
//!
//! Every update carries the name of the relation it targets, and the hot
//! paths of the system — candidate construction at the update store,
//! flattening, conflict detection — clone updates constantly. With plain
//! `String` names each clone allocates; schemas have a handful of relations
//! while logs hold millions of updates, so the names are interned once in a
//! process-wide pool and shared as [`Arc<str>`]. Cloning a [`RelName`] is a
//! reference-count bump, equality of two interned names is usually a pointer
//! comparison, and the pool stays tiny (one entry per distinct relation name
//! ever seen).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

fn pool() -> &'static Mutex<HashMap<Arc<str>, ()>> {
    static POOL: OnceLock<Mutex<HashMap<Arc<str>, ()>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// An interned relation name: a shared, immutable string that is cheap to
/// clone, hash and compare.
///
/// `RelName` dereferences to `str`, so it can be passed anywhere a `&str` is
/// expected, and it compares equal to plain strings of the same content.
#[derive(Clone)]
pub struct RelName(Arc<str>);

impl RelName {
    /// Interns a name, returning the canonical shared instance.
    pub fn new(name: &str) -> Self {
        let mut pool = pool().lock().expect("relation-name pool poisoned");
        if let Some((existing, ())) = pool.get_key_value(name) {
            return RelName(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(name);
        pool.insert(Arc::clone(&arc), ());
        RelName(arc)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for RelName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for RelName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for RelName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for RelName {
    fn eq(&self, other: &Self) -> bool {
        // Interned names are pointer-equal when equal; fall back to content
        // comparison for names deserialised before the pool saw them.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for RelName {}

impl PartialEq<str> for RelName {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for RelName {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for RelName {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<RelName> for String {
    fn eq(&self, other: &RelName) -> bool {
        self.as_str() == &*other.0
    }
}

impl Hash for RelName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s hash so `Borrow<str>` lookups work.
        (*self.0).hash(state);
    }
}

impl PartialOrd for RelName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RelName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Debug for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RelName {
    fn from(name: &str) -> Self {
        RelName::new(name)
    }
}

impl From<&String> for RelName {
    fn from(name: &String) -> Self {
        RelName::new(name)
    }
}

impl From<String> for RelName {
    fn from(name: String) -> Self {
        RelName::new(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_storage() {
        let a = RelName::new("Function");
        let b = RelName::new("Function");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.0, &c.0));
    }

    #[test]
    fn compares_against_plain_strings() {
        let a = RelName::new("XRef");
        assert_eq!(a, "XRef");
        assert_eq!(a, *"XRef");
        assert_eq!(a, String::from("XRef"));
        assert_eq!(String::from("XRef"), a);
        assert_ne!(a, RelName::new("Function"));
        assert!(RelName::new("A") < RelName::new("B"));
    }

    #[test]
    fn works_as_a_borrowed_hash_key() {
        use std::collections::HashMap;
        let mut map: HashMap<RelName, u32> = HashMap::new();
        map.insert(RelName::new("Function"), 1);
        assert_eq!(map.get("Function"), Some(&1));
        assert_eq!(map.get("XRef"), None);
    }

    #[test]
    fn display_and_deref() {
        let a = RelName::new("Function");
        assert_eq!(a.to_string(), "Function");
        assert_eq!(a.as_str(), "Function");
        assert_eq!(a.as_ref(), "Function");
        assert_eq!(a.len(), 8);
        assert_eq!(format!("{a:?}"), "\"Function\"");
    }
}
