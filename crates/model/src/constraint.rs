//! Integrity constraints and their evaluation.
//!
//! Beyond the primary keys declared in each [`crate::schema::RelationSchema`],
//! a [`crate::schema::Schema`] may declare foreign-key and uniqueness
//! constraints. An update is *incompatible with an instance* (Section 4 of the
//! paper) if applying it would violate one of these constraints; the
//! reconciliation algorithm rejects such updates in `CheckState`.

use crate::error::{ModelError, Result};
use crate::schema::Schema;
use crate::tuple::{KeyValue, Tuple};
use crate::update::{Update, UpdateOp};
use std::fmt;

/// Read-only view of a database instance, sufficient to evaluate integrity
/// constraints and to detect incompatibility between an update and the
/// current state. Implemented by the storage engine.
pub trait InstanceView {
    /// Looks up the tuple with the given primary key in a relation.
    fn get_by_key(&self, relation: &str, key: &KeyValue) -> Option<Tuple>;

    /// Returns true if the relation currently contains exactly this tuple.
    fn contains_tuple(&self, relation: &str, tuple: &Tuple) -> bool {
        self.scan(relation).iter().any(|t| t == tuple)
    }

    /// Returns all tuples of the relation. Intended for constraint checking
    /// and tests, not as a high-performance access path.
    fn scan(&self, relation: &str) -> Vec<Tuple>;
}

/// A declared integrity constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// Every value of `columns` in `relation` must appear as the value of
    /// `ref_columns` in `ref_relation`.
    ForeignKey {
        /// Referencing relation.
        relation: String,
        /// Referencing columns, in order.
        columns: Vec<String>,
        /// Referenced relation.
        ref_relation: String,
        /// Referenced columns, in order (must be the referenced relation's
        /// primary key for lookup efficiency).
        ref_columns: Vec<String>,
    },
    /// The listed columns must be unique across the relation (a secondary
    /// uniqueness constraint in addition to the primary key).
    Unique {
        /// Constrained relation.
        relation: String,
        /// Columns that must be jointly unique.
        columns: Vec<String>,
    },
}

impl Constraint {
    /// A short human-readable name for error messages.
    pub fn name(&self) -> String {
        match self {
            Constraint::ForeignKey { relation, ref_relation, .. } => {
                format!("fk:{relation}->{ref_relation}")
            }
            Constraint::Unique { relation, columns } => {
                format!("unique:{relation}({})", columns.join(","))
            }
        }
    }

    /// Checks that the constraint references only relations and columns that
    /// exist in the schema.
    pub fn validate_against(&self, schema: &Schema) -> Result<()> {
        match self {
            Constraint::ForeignKey { relation, columns, ref_relation, ref_columns } => {
                let rel = schema.relation(relation)?;
                let fref = schema.relation(ref_relation)?;
                for c in columns {
                    rel.column_index(c)?;
                }
                for c in ref_columns {
                    fref.column_index(c)?;
                }
                if columns.len() != ref_columns.len() {
                    return Err(ModelError::InvalidSchema(format!(
                        "foreign key `{}` has {} referencing columns but {} referenced columns",
                        self.name(),
                        columns.len(),
                        ref_columns.len()
                    )));
                }
                Ok(())
            }
            Constraint::Unique { relation, columns } => {
                let rel = schema.relation(relation)?;
                if columns.is_empty() {
                    return Err(ModelError::InvalidSchema(format!(
                        "uniqueness constraint on `{relation}` lists no columns"
                    )));
                }
                for c in columns {
                    rel.column_index(c)?;
                }
                Ok(())
            }
        }
    }

    /// Checks whether applying `update` to the instance `view` would violate
    /// this constraint. The check is conservative in the direction the paper
    /// needs: an update that would leave dangling references or duplicate
    /// unique values is reported as a violation.
    pub fn check_update(
        &self,
        schema: &Schema,
        view: &dyn InstanceView,
        update: &Update,
    ) -> Result<()> {
        match self {
            Constraint::ForeignKey { relation, columns, ref_relation, ref_columns } => {
                // Writes into the referencing relation must point at an
                // existing referenced tuple.
                if update.relation == *relation {
                    if let Some(written) = update.written_tuple() {
                        let rel = schema.relation(relation)?;
                        let fref = schema.relation(ref_relation)?;
                        let fk_value: Vec<_> = columns
                            .iter()
                            .map(|c| rel.column_index(c).map(|i| written.values()[i].clone()))
                            .collect::<Result<_>>()?;
                        // Only enforce when the referenced columns are the
                        // referenced relation's key (declared usage).
                        let ref_key_names = fref.key_column_names();
                        if ref_key_names
                            == ref_columns.iter().map(String::as_str).collect::<Vec<_>>()
                        {
                            let key = KeyValue::from_values(fk_value);
                            if view.get_by_key(ref_relation, &key).is_none() {
                                return Err(ModelError::ConstraintViolation {
                                    constraint: self.name(),
                                    detail: format!("no tuple in `{ref_relation}` with key {key}"),
                                });
                            }
                        }
                    }
                }
                // Deletions from the referenced relation must not strand
                // referencing tuples.
                if update.relation == *ref_relation {
                    if let UpdateOp::Delete(deleted) = &update.op {
                        let fref = schema.relation(ref_relation)?;
                        let rel = schema.relation(relation)?;
                        let ref_value: Vec<_> = ref_columns
                            .iter()
                            .map(|c| fref.column_index(c).map(|i| deleted.values()[i].clone()))
                            .collect::<Result<_>>()?;
                        let col_idx: Vec<_> =
                            columns.iter().map(|c| rel.column_index(c)).collect::<Result<_>>()?;
                        let dangling = view.scan(relation).iter().any(|t| {
                            col_idx.iter().zip(&ref_value).all(|(&i, v)| &t.values()[i] == v)
                        });
                        if dangling {
                            return Err(ModelError::ConstraintViolation {
                                constraint: self.name(),
                                detail: format!(
                                    "deleting {deleted} from `{ref_relation}` would strand references"
                                ),
                            });
                        }
                    }
                }
                Ok(())
            }
            Constraint::Unique { relation, columns } => {
                if update.relation != *relation {
                    return Ok(());
                }
                let Some(written) = update.written_tuple() else { return Ok(()) };
                let rel = schema.relation(relation)?;
                let col_idx: Vec<_> =
                    columns.iter().map(|c| rel.column_index(c)).collect::<Result<_>>()?;
                let written_vals: Vec<_> =
                    col_idx.iter().map(|&i| written.values()[i].clone()).collect();
                let replaced = update.read_tuple();
                let duplicate = view.scan(relation).iter().any(|t| {
                    Some(t) != replaced
                        && t != written
                        && col_idx.iter().zip(&written_vals).all(|(&i, v)| &t.values()[i] == v)
                });
                if duplicate {
                    return Err(ModelError::ConstraintViolation {
                        constraint: self.name(),
                        detail: format!("value {written} duplicates an existing tuple"),
                    });
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ParticipantId;
    use crate::schema::{bioinformatics_schema, ColumnDef, RelationSchema};
    use crate::value::ValueType;
    use std::collections::HashMap;

    /// Minimal in-memory instance for constraint tests.
    #[derive(Default)]
    struct MapInstance {
        tables: HashMap<String, Vec<Tuple>>,
        schema: Schema,
    }

    impl MapInstance {
        fn new(schema: Schema) -> Self {
            MapInstance { tables: HashMap::new(), schema }
        }
        fn insert(&mut self, relation: &str, tuple: Tuple) {
            self.tables.entry(relation.to_owned()).or_default().push(tuple);
        }
    }

    impl InstanceView for MapInstance {
        fn get_by_key(&self, relation: &str, key: &KeyValue) -> Option<Tuple> {
            let rel = self.schema.relation(relation).ok()?;
            self.tables.get(relation)?.iter().find(|t| &rel.key_of(t) == key).cloned()
        }
        fn scan(&self, relation: &str) -> Vec<Tuple> {
            self.tables.get(relation).cloned().unwrap_or_default()
        }
    }

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn fk_constraint() -> Constraint {
        Constraint::ForeignKey {
            relation: "XRef".into(),
            columns: vec!["organism".into(), "protein".into()],
            ref_relation: "Function".into(),
            ref_columns: vec!["organism".into(), "protein".into()],
        }
    }

    #[test]
    fn validate_against_detects_unknown_names() {
        let schema = bioinformatics_schema();
        assert!(fk_constraint().validate_against(&schema).is_ok());
        let bad = Constraint::ForeignKey {
            relation: "XRef".into(),
            columns: vec!["nope".into()],
            ref_relation: "Function".into(),
            ref_columns: vec!["organism".into()],
        };
        assert!(bad.validate_against(&schema).is_err());
        let bad_rel = Constraint::Unique { relation: "Missing".into(), columns: vec!["a".into()] };
        assert!(bad_rel.validate_against(&schema).is_err());
        let empty = Constraint::Unique { relation: "Function".into(), columns: vec![] };
        assert!(empty.validate_against(&schema).is_err());
    }

    #[test]
    fn foreign_key_insert_requires_referenced_tuple() {
        let schema = bioinformatics_schema();
        let mut inst = MapInstance::new(schema.clone());
        let fk = fk_constraint();
        let xref =
            Update::insert("XRef", Tuple::of_text(&["rat", "prot1", "genbank", "ACC1"]), p(1));
        // Missing referenced Function tuple: violation.
        assert!(fk.check_update(&schema, &inst, &xref).is_err());
        // After the Function tuple exists, the insert is fine.
        inst.insert("Function", Tuple::of_text(&["rat", "prot1", "immune"]));
        assert!(fk.check_update(&schema, &inst, &xref).is_ok());
    }

    #[test]
    fn foreign_key_delete_of_referenced_tuple_is_violation() {
        let schema = bioinformatics_schema();
        let mut inst = MapInstance::new(schema.clone());
        inst.insert("Function", Tuple::of_text(&["rat", "prot1", "immune"]));
        inst.insert("XRef", Tuple::of_text(&["rat", "prot1", "genbank", "ACC1"]));
        let fk = fk_constraint();
        let del = Update::delete("Function", Tuple::of_text(&["rat", "prot1", "immune"]), p(1));
        assert!(fk.check_update(&schema, &inst, &del).is_err());
        // Deleting a Function tuple nothing references is fine.
        inst.insert("Function", Tuple::of_text(&["mouse", "prot2", "immune"]));
        let del2 = Update::delete("Function", Tuple::of_text(&["mouse", "prot2", "immune"]), p(1));
        assert!(fk.check_update(&schema, &inst, &del2).is_ok());
    }

    #[test]
    fn unique_constraint_detects_duplicates() {
        let mut schema = Schema::new();
        schema
            .add_relation(
                RelationSchema::new(
                    "Protein",
                    vec![
                        ColumnDef::new("id", ValueType::Int),
                        ColumnDef::new("name", ValueType::Text),
                    ],
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        let uniq = Constraint::Unique { relation: "Protein".into(), columns: vec!["name".into()] };
        schema.add_constraint(uniq.clone()).unwrap();
        let mut inst = MapInstance::new(schema.clone());
        inst.insert("Protein", Tuple::new(vec![1.into(), "p53".into()]));

        let dup = Update::insert("Protein", Tuple::new(vec![2.into(), "p53".into()]), p(1));
        assert!(uniq.check_update(&schema, &inst, &dup).is_err());

        let fresh = Update::insert("Protein", Tuple::new(vec![2.into(), "brca1".into()]), p(1));
        assert!(uniq.check_update(&schema, &inst, &fresh).is_ok());

        // Replacing the very tuple that holds the value is not a violation.
        let replace = Update::modify(
            "Protein",
            Tuple::new(vec![1.into(), "p53".into()]),
            Tuple::new(vec![1.into(), "p53".into()]),
            p(1),
        );
        assert!(uniq.check_update(&schema, &inst, &replace).is_ok());
    }

    #[test]
    fn unrelated_updates_do_not_trip_constraints() {
        let schema = bioinformatics_schema();
        let inst = MapInstance::new(schema.clone());
        let fk = fk_constraint();
        let upd = Update::insert("Function", Tuple::of_text(&["rat", "prot1", "immune"]), p(1));
        assert!(fk.check_update(&schema, &inst, &upd).is_ok());
    }

    #[test]
    fn names_and_display() {
        let fk = fk_constraint();
        assert!(fk.to_string().contains("fk:XRef->Function"));
    }
}
