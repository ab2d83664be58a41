//! Relation schemas and the system-wide schema `Σ`.

use crate::constraint::Constraint;
use crate::error::{ModelError, Result};
use crate::tuple::{KeyValue, Tuple};
use crate::value::ValueType;
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;

/// Declaration of a single column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within its relation.
    pub name: String,
    /// Declared type of the column.
    pub ty: ValueType,
    /// Whether NULL is an allowed value for this column.
    pub nullable: bool,
}

impl ColumnDef {
    /// Creates a non-nullable column definition.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef { name: name.into(), ty, nullable: false }
    }

    /// Creates a nullable column definition.
    pub fn nullable(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef { name: name.into(), ty, nullable: true }
    }
}

/// Schema of a single relation: a name, an ordered list of columns, and the
/// indexes of the columns that form the primary key.
///
/// The paper's running example is
/// `F(organism, protein, function)` with key `(organism, protein)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    columns: Vec<ColumnDef>,
    key: Vec<usize>,
}

impl RelationSchema {
    /// Creates a relation schema. `key_columns` are column *names*; they must
    /// all exist among `columns`.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        key_columns: &[&str],
    ) -> Result<Self> {
        let name = name.into();
        if columns.is_empty() {
            return Err(ModelError::InvalidSchema(format!(
                "relation `{name}` must have at least one column"
            )));
        }
        let mut seen = FxHashSet::default();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(ModelError::InvalidSchema(format!(
                    "duplicate column `{}` in relation `{name}`",
                    c.name
                )));
            }
        }
        if key_columns.is_empty() {
            return Err(ModelError::InvalidSchema(format!(
                "relation `{name}` must declare a primary key"
            )));
        }
        let mut key = Vec::with_capacity(key_columns.len());
        for kc in key_columns {
            let idx = columns.iter().position(|c| c.name == *kc).ok_or_else(|| {
                ModelError::UnknownColumn { relation: name.clone(), column: (*kc).to_owned() }
            })?;
            if key.contains(&idx) {
                return Err(ModelError::InvalidSchema(format!(
                    "key column `{kc}` listed twice for relation `{name}`"
                )));
            }
            key.push(idx);
        }
        Ok(RelationSchema { name, columns, key })
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indexes (into the column list) of the primary-key columns.
    pub fn key_indexes(&self) -> &[usize] {
        &self.key
    }

    /// Names of the primary-key columns, in key order.
    pub fn key_column_names(&self) -> Vec<&str> {
        self.key.iter().map(|&i| self.columns[i].name.as_str()).collect()
    }

    /// Returns the index of a column by name.
    pub fn column_index(&self, column: &str) -> Result<usize> {
        self.columns.iter().position(|c| c.name == column).ok_or_else(|| {
            ModelError::UnknownColumn { relation: self.name.clone(), column: column.to_owned() }
        })
    }

    /// Validates that a tuple conforms to this schema (arity, types,
    /// nullability, and non-NULL key attributes).
    pub fn validate_tuple(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(ModelError::SchemaMismatch {
                relation: self.name.clone(),
                detail: format!("expected {} columns, got {}", self.arity(), tuple.arity()),
            });
        }
        for (i, (value, col)) in tuple.values().iter().zip(&self.columns).enumerate() {
            if value.is_null() {
                if !col.nullable {
                    return Err(ModelError::SchemaMismatch {
                        relation: self.name.clone(),
                        detail: format!("column `{}` (index {i}) is not nullable", col.name),
                    });
                }
            } else if !value.conforms_to(col.ty) {
                return Err(ModelError::TypeMismatch {
                    expected: format!("{} for column `{}`", col.ty, col.name),
                    found: format!("{value}"),
                });
            }
        }
        for &k in &self.key {
            if tuple.values()[k].is_null() {
                return Err(ModelError::SchemaMismatch {
                    relation: self.name.clone(),
                    detail: format!("key column `{}` must not be NULL", self.columns[k].name),
                });
            }
        }
        Ok(())
    }

    /// Extracts the key value of a tuple under this schema.
    pub fn key_of(&self, tuple: &Tuple) -> KeyValue {
        KeyValue::collect(self.key.iter().map(|&i| tuple.values()[i].clone()))
    }

    /// Returns true if `key` is the key value of `tuple`, without building
    /// that key value.
    pub fn is_key_of(&self, key: &KeyValue, tuple: &Tuple) -> bool {
        key.arity() == self.key.len()
            && self.key.iter().zip(key.values()).all(|(&i, k)| tuple.get(i) == Some(k))
    }

    /// Returns true if the two tuples have the same key value.
    pub fn same_key(&self, a: &Tuple, b: &Tuple) -> bool {
        self.key.iter().all(|&i| a.get(i) == b.get(i))
    }
}

/// The system-wide schema `Σ`: a collection of relation schemas plus the
/// integrity constraints that every participant instance must satisfy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    relations: BTreeMap<String, RelationSchema>,
    constraints: Vec<Constraint>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Adds a relation to the schema. Returns an error if a relation with the
    /// same name already exists.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<()> {
        if self.relations.contains_key(relation.name()) {
            return Err(ModelError::InvalidSchema(format!(
                "relation `{}` already declared",
                relation.name()
            )));
        }
        self.relations.insert(relation.name().to_owned(), relation);
        Ok(())
    }

    /// Adds an integrity constraint. The constraint must reference only
    /// relations and columns that exist in the schema.
    pub fn add_constraint(&mut self, constraint: Constraint) -> Result<()> {
        constraint.validate_against(self)?;
        self.constraints.push(constraint);
        Ok(())
    }

    /// The declared integrity constraints (beyond the implicit primary keys).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relations.get(name).ok_or_else(|| ModelError::UnknownRelation(name.to_owned()))
    }

    /// Iterates over all relation schemas in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Names of all relations, in sorted order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns true if the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Builds the bioinformatics schema used throughout the paper and in the
/// synthetic workload: `Function(organism, protein, function)` with key
/// `(organism, protein)` and a secondary cross-reference relation
/// `XRef(organism, protein, db, accession)` with key
/// `(organism, protein, db, accession)`.
pub fn bioinformatics_schema() -> Schema {
    let function = RelationSchema::new(
        "Function",
        vec![
            ColumnDef::new("organism", ValueType::Text),
            ColumnDef::new("protein", ValueType::Text),
            ColumnDef::new("function", ValueType::Text),
        ],
        &["organism", "protein"],
    )
    .expect("static schema is valid");
    let xref = RelationSchema::new(
        "XRef",
        vec![
            ColumnDef::new("organism", ValueType::Text),
            ColumnDef::new("protein", ValueType::Text),
            ColumnDef::new("db", ValueType::Text),
            ColumnDef::new("accession", ValueType::Text),
        ],
        &["organism", "protein", "db", "accession"],
    )
    .expect("static schema is valid");
    let mut schema = Schema::new();
    schema.add_relation(function).expect("fresh schema");
    schema.add_relation(xref).expect("fresh schema");
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn function_schema() -> RelationSchema {
        RelationSchema::new(
            "Function",
            vec![
                ColumnDef::new("organism", ValueType::Text),
                ColumnDef::new("protein", ValueType::Text),
                ColumnDef::new("function", ValueType::Text),
            ],
            &["organism", "protein"],
        )
        .unwrap()
    }

    #[test]
    fn relation_schema_exposes_key_columns() {
        let rs = function_schema();
        assert_eq!(rs.name(), "Function");
        assert_eq!(rs.arity(), 3);
        assert_eq!(rs.key_indexes(), &[0, 1]);
        assert_eq!(rs.key_column_names(), vec!["organism", "protein"]);
        assert_eq!(rs.column_index("function").unwrap(), 2);
        assert!(rs.column_index("nope").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = RelationSchema::new(
            "R",
            vec![ColumnDef::new("a", ValueType::Int), ColumnDef::new("a", ValueType::Int)],
            &["a"],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::InvalidSchema(_)));
    }

    #[test]
    fn key_must_reference_existing_columns() {
        let err = RelationSchema::new("R", vec![ColumnDef::new("a", ValueType::Int)], &["missing"])
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownColumn { .. }));
    }

    #[test]
    fn empty_key_rejected() {
        let err =
            RelationSchema::new("R", vec![ColumnDef::new("a", ValueType::Int)], &[]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidSchema(_)));
    }

    #[test]
    fn tuple_validation_checks_arity_types_and_key_nulls() {
        let rs = function_schema();
        let good = Tuple::new(vec!["rat".into(), "prot1".into(), "immune".into()]);
        assert!(rs.validate_tuple(&good).is_ok());

        let wrong_arity = Tuple::new(vec!["rat".into(), "prot1".into()]);
        assert!(rs.validate_tuple(&wrong_arity).is_err());

        let wrong_type = Tuple::new(vec!["rat".into(), Value::int(1), "immune".into()]);
        assert!(rs.validate_tuple(&wrong_type).is_err());

        let null_key = Tuple::new(vec![Value::Null, "prot1".into(), "immune".into()]);
        assert!(rs.validate_tuple(&null_key).is_err());
    }

    #[test]
    fn nullable_columns_accept_null() {
        let rs = RelationSchema::new(
            "R",
            vec![ColumnDef::new("k", ValueType::Int), ColumnDef::nullable("v", ValueType::Text)],
            &["k"],
        )
        .unwrap();
        let t = Tuple::new(vec![Value::int(1), Value::Null]);
        assert!(rs.validate_tuple(&t).is_ok());
    }

    #[test]
    fn key_extraction() {
        let rs = function_schema();
        let t = Tuple::new(vec!["rat".into(), "prot1".into(), "immune".into()]);
        let key = rs.key_of(&t);
        assert_eq!(key.values(), &[Value::text("rat"), Value::text("prot1")]);
    }

    #[test]
    fn key_comparisons_agree_with_key_extraction() {
        let rs = function_schema();
        let a = Tuple::of_text(&["rat", "prot1", "immune"]);
        let b = Tuple::of_text(&["rat", "prot1", "cell-resp"]);
        let c = Tuple::of_text(&["rat", "prot2", "immune"]);
        assert!(rs.same_key(&a, &b) && rs.key_of(&a) == rs.key_of(&b));
        assert!(!rs.same_key(&a, &c) && rs.key_of(&a) != rs.key_of(&c));
        assert!(rs.is_key_of(&rs.key_of(&a), &b));
        assert!(!rs.is_key_of(&rs.key_of(&a), &c));
        assert!(!rs.is_key_of(&KeyValue::of_text(&["rat"]), &a));
        assert!(!rs.is_key_of(&rs.key_of(&a), &Tuple::of_text(&["rat"])));
    }

    #[test]
    fn schema_rejects_duplicate_relations() {
        let mut schema = Schema::new();
        schema.add_relation(function_schema()).unwrap();
        assert!(schema.add_relation(function_schema()).is_err());
    }

    #[test]
    fn schema_lookup() {
        let schema = bioinformatics_schema();
        assert_eq!(schema.len(), 2);
        assert!(!schema.is_empty());
        assert!(schema.relation("Function").is_ok());
        assert!(schema.relation("Gene").is_err());
        assert_eq!(schema.relation_names(), vec!["Function", "XRef"]);
    }
}
