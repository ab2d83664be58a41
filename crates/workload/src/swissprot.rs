//! Synthetic SWISS-PROT-style value pools.
//!
//! SWISS-PROT catalogues proteins per organism and annotates each with a
//! curated function; GenBank-style cross-reference accessions point at
//! related database entries. The real database is not redistributable, so
//! this module synthesises pools with the same *shape*: a universe of
//! `(organism, protein)` keys, a pool of protein-function phrases to draw
//! update values from, and cross-reference database names and accession
//! strings for the secondary table.

use orchestra_model::{Tuple, Value};

/// Organism names used to synthesise keys (model organisms that dominate
/// curated protein databases).
const ORGANISMS: &[&str] = &[
    "human",
    "mouse",
    "rat",
    "zebrafish",
    "fruitfly",
    "yeast",
    "ecoli",
    "arabidopsis",
    "celegans",
    "xenopus",
    "chicken",
    "pig",
    "cow",
    "dog",
    "macaque",
];

/// Protein-function phrase fragments combined to synthesise a function pool.
const FUNCTION_ROOTS: &[&str] = &[
    "cell-metabolism",
    "immune-response",
    "cellular-respiration",
    "signal-transduction",
    "dna-repair",
    "protein-folding",
    "apoptosis-regulation",
    "transcription-factor",
    "ion-transport",
    "lipid-biosynthesis",
    "oxidative-stress-response",
    "cell-cycle-control",
    "vesicle-trafficking",
    "rna-splicing",
    "chromatin-remodeling",
    "kinase-activity",
    "phosphatase-activity",
    "ubiquitin-ligase",
    "proteolysis",
    "translation-initiation",
];

/// Cross-reference database names used for the secondary `XRef` relation.
const XREF_DATABASES: &[&str] =
    &["genbank", "embl", "pdb", "interpro", "pfam", "prosite", "refseq", "ensembl"];

/// Deterministic pools of synthetic SWISS-PROT-like values.
#[derive(Debug, Clone)]
pub struct SwissProtPools {
    keys: Vec<(String, String)>,
    functions: Vec<String>,
}

impl SwissProtPools {
    /// Builds pools with `key_universe` distinct `(organism, protein)` keys
    /// and `function_pool` distinct protein-function values.
    pub fn new(key_universe: usize, function_pool: usize) -> Self {
        let keys = (0..key_universe)
            .map(|i| {
                let organism = ORGANISMS[i % ORGANISMS.len()].to_owned();
                let protein = format!("prot{:05}", i);
                (organism, protein)
            })
            .collect();
        let functions = (0..function_pool)
            .map(|i| {
                let root = FUNCTION_ROOTS[i % FUNCTION_ROOTS.len()];
                if i < FUNCTION_ROOTS.len() {
                    root.to_owned()
                } else {
                    format!("{root}-variant{}", i / FUNCTION_ROOTS.len())
                }
            })
            .collect();
        SwissProtPools { keys, functions }
    }

    /// Number of distinct keys in the universe.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of distinct function values.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// The `(organism, protein)` key at an index.
    pub fn key(&self, index: usize) -> (&str, &str) {
        let (o, p) = &self.keys[index % self.keys.len()];
        (o, p)
    }

    /// The function value at an index (0 is the most popular rank when
    /// combined with a Zipfian sampler).
    fn function(&self, index: usize) -> &str {
        &self.functions[index % self.functions.len()]
    }

    /// Builds a `Function` tuple for the key at `key_index` carrying the
    /// function value at `function_index`.
    pub fn function_tuple(&self, key_index: usize, function_index: usize) -> Tuple {
        let (organism, protein) = self.key(key_index);
        Tuple::new(vec![
            Value::text(organism),
            Value::text(protein),
            Value::text(self.function(function_index)),
        ])
    }

    /// Builds the `XRef` tuple number `n` for the key at `key_index`.
    pub fn xref_tuple(&self, key_index: usize, n: usize) -> Tuple {
        let (organism, protein) = self.key(key_index);
        let db = XREF_DATABASES[n % XREF_DATABASES.len()];
        Tuple::new(vec![
            Value::text(organism),
            Value::text(protein),
            Value::text(db),
            Value::text(format!("{}-{}-{:04}", db.to_uppercase(), protein, n)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pools_have_requested_sizes_and_distinct_keys() {
        let pools = SwissProtPools::new(500, 200);
        assert_eq!(pools.key_count(), 500);
        assert_eq!(pools.function_count(), 200);
        let distinct: HashSet<_> = (0..500).map(|i| pools.key(i)).collect();
        assert_eq!(distinct.len(), 500);
        let distinct_fn: HashSet<_> = (0..200).map(|i| pools.function(i)).collect();
        assert_eq!(distinct_fn.len(), 200);
    }

    #[test]
    fn tuples_conform_to_the_bioinformatics_schema() {
        let schema = orchestra_model::schema::bioinformatics_schema();
        let pools = SwissProtPools::new(50, 30);
        let f = pools.function_tuple(3, 7);
        schema.relation("Function").unwrap().validate_tuple(&f).unwrap();
        let x = pools.xref_tuple(3, 2);
        schema.relation("XRef").unwrap().validate_tuple(&x).unwrap();
    }

    #[test]
    fn indexes_wrap_safely() {
        let pools = SwissProtPools::new(10, 5);
        assert_eq!(pools.key(3), pools.key(13));
        assert_eq!(pools.function(2), pools.function(7));
    }

    #[test]
    fn xref_tuples_for_the_same_key_are_distinct() {
        let pools = SwissProtPools::new(10, 5);
        let a = pools.xref_tuple(1, 0);
        let b = pools.xref_tuple(1, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn pools_are_deterministic() {
        let a = SwissProtPools::new(100, 40);
        let b = SwissProtPools::new(100, 40);
        assert_eq!(a.function_tuple(17, 23), b.function_tuple(17, 23));
    }
}
