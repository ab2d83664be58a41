//! The synthetic curated-database update generator.

use crate::swissprot::SwissProtPools;
use crate::zipf::ZipfSampler;
use orchestra_model::{KeyValue, ParticipantId, Tuple, Update};
use orchestra_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// Parameters of the synthetic workload, matching Section 6 of the paper
/// where specified (Zipf exponent 1.5 over the function pool, 7.3
/// cross-reference tuples per newly inserted key) and configurable where the
/// paper leaves the choice open (size of the key universe, skew of key
/// selection).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of updates per generated transaction.
    pub transaction_size: usize,
    /// Number of distinct `(organism, protein)` keys in the universe.
    pub key_universe: usize,
    /// Number of distinct protein-function values.
    pub function_pool: usize,
    /// Zipf exponent for sampling update values (the paper uses 1.5).
    pub value_zipf_exponent: f64,
    /// Zipf exponent for choosing which key an update touches (higher means
    /// more contention on popular proteins).
    pub key_zipf_exponent: f64,
    /// Mean number of cross-reference tuples inserted per newly inserted key
    /// (the paper observes 7.3).
    pub xref_mean: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            transaction_size: 1,
            key_universe: 2_000,
            function_pool: 500,
            value_zipf_exponent: 1.5,
            key_zipf_exponent: 0.9,
            xref_mean: 7.3,
        }
    }
}

/// What a transaction or batch under generation has written so far, read in
/// front of the instance it is generated against: the generator only ever
/// asks for the `Function` row under a key and for the presence of an `XRef`
/// tuple, and it never deletes, so these two collections answer exactly as an
/// instance with the writes applied would.
#[derive(Debug, Default)]
struct PendingWrites {
    functions: FxHashMap<KeyValue, Tuple>,
    xrefs: FxHashSet<Tuple>,
}

/// Generates transactions that mimic curators updating a SWISS-PROT-style
/// database: each update either inserts a new protein-function fact (plus its
/// cross-references) or revises the function of a protein already present in
/// the generating participant's instance.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    /// Shared so that confederations with one generator per participant pay
    /// for the key universe once — the pools are a pure function of
    /// `(key_universe, function_pool)`, never of the seed.
    pools: Arc<SwissProtPools>,
    value_sampler: ZipfSampler,
    key_sampler: ZipfSampler,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator with the given configuration and seed. The same
    /// seed produces the same update stream.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let pools = Arc::new(SwissProtPools::new(config.key_universe, config.function_pool));
        Self::with_shared_pools(config, pools, seed)
    }

    /// Creates a generator that borrows an already-built pool set instead of
    /// materialising its own. At confederation scale (a thousand generators
    /// over millions of keys) the pools dominate memory, and they are
    /// identical across participants, so build them once and share.
    ///
    /// # Panics
    /// Panics if the pool dimensions do not match the configuration — a
    /// mismatch would silently change which keys the samplers can reach.
    pub fn with_shared_pools(
        config: WorkloadConfig,
        pools: Arc<SwissProtPools>,
        seed: u64,
    ) -> Self {
        assert_eq!(pools.key_count(), config.key_universe, "shared pool key universe mismatch");
        assert_eq!(pools.function_count(), config.function_pool, "shared pool function mismatch");
        let value_sampler = ZipfSampler::new(config.function_pool, config.value_zipf_exponent);
        let key_sampler = ZipfSampler::new(config.key_universe, config.key_zipf_exponent);
        WorkloadGenerator {
            config,
            pools,
            value_sampler,
            key_sampler,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of cross-reference tuples for one newly inserted key, averaging
    /// `xref_mean`.
    fn sample_xref_count(&mut self) -> usize {
        let base = self.config.xref_mean.floor() as usize;
        let frac = self.config.xref_mean - base as f64;
        if self.rng.gen_bool(frac.clamp(0.0, 1.0)) {
            base + 1
        } else {
            base
        }
    }

    /// Generates the updates of one transaction for `participant`, relative
    /// to its current `instance`. Within the transaction, successive updates
    /// to the same key chain correctly (a revision reads the value written by
    /// the previous update).
    #[cfg(test)]
    fn next_transaction(&mut self, participant: ParticipantId, instance: &Database) -> Vec<Update> {
        self.transaction_over(participant, instance, &mut PendingWrites::default())
    }

    /// One transaction relative to `instance` with `pending` applied on top;
    /// its own writes are added to `pending`.
    fn transaction_over(
        &mut self,
        participant: ParticipantId,
        instance: &Database,
        pending: &mut PendingWrites,
    ) -> Vec<Update> {
        let mut updates = Vec::with_capacity(self.config.transaction_size);
        let function_rel = instance
            .schema()
            .relation("Function")
            .expect("workload schema has a Function relation");

        for _ in 0..self.config.transaction_size {
            let key_index = self.key_sampler.sample(&mut self.rng);
            let value_index = self.value_sampler.sample(&mut self.rng);
            let proposed = self.pools.function_tuple(key_index, value_index);
            let key = function_rel.key_of(&proposed);

            let current: Option<Tuple> = pending
                .functions
                .get(&key)
                .cloned()
                .or_else(|| instance.value_at("Function", &key));

            match current {
                Some(existing) => {
                    if existing == proposed {
                        // Re-curating to the same value would be a no-op;
                        // pick the next-ranked value to make it a revision.
                        let alt_index = (value_index + 1) % self.config.function_pool;
                        let alt = self.pools.function_tuple(key_index, alt_index);
                        if alt == existing {
                            continue;
                        }
                        pending.functions.insert(key, alt.clone());
                        updates.push(Update::modify("Function", existing, alt, participant));
                    } else {
                        pending.functions.insert(key, proposed.clone());
                        updates.push(Update::modify("Function", existing, proposed, participant));
                    }
                }
                None => {
                    pending.functions.insert(key, proposed.clone());
                    updates.push(Update::insert("Function", proposed, participant));
                    let xrefs = self.sample_xref_count();
                    for n in 0..xrefs {
                        let xref = self.pools.xref_tuple(key_index, n);
                        if !instance.contains_tuple_exact("XRef", &xref)
                            && pending.xrefs.insert(xref.clone())
                        {
                            updates.push(Update::insert("XRef", xref, participant));
                        }
                    }
                }
            }
        }
        updates
    }

    /// Generates a whole batch of transactions (each sized per the
    /// configuration), each relative to the instance as the earlier ones of
    /// the batch leave it, so the batch is internally consistent. Returns the
    /// update lists, one per transaction.
    ///
    /// The earlier transactions are carried as their pending writes, not
    /// applied to a copy of the instance: a generated transaction applies to
    /// the state it was generated against by construction (its revisions name
    /// the current row, its insertions a free key).
    pub fn next_batch(
        &mut self,
        participant: ParticipantId,
        instance: &Database,
        transactions: usize,
    ) -> Vec<Vec<Update>> {
        let mut pending = PendingWrites::default();
        (0..transactions)
            .map(|_| self.transaction_over(participant, instance, &mut pending))
            .filter(|updates| !updates.is_empty())
            .collect()
    }

    /// [`WorkloadGenerator::next_batch`] as it used to be written — every
    /// transaction generated against, then applied to, a scratch copy of the
    /// instance. Kept as the reference `next_batch` is tested against.
    #[cfg(test)]
    fn next_batch_on_scratch_copy(
        &mut self,
        participant: ParticipantId,
        instance: &Database,
        transactions: usize,
    ) -> Vec<Vec<Update>> {
        let mut scratch = instance.clone();
        let mut batch = Vec::with_capacity(transactions);
        for _ in 0..transactions {
            let updates = self.next_transaction(participant, &scratch);
            if updates.is_empty() {
                continue;
            }
            if scratch.apply_all(&updates).is_ok() {
                batch.push(updates);
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::UpdateKind;
    use proptest::prelude::*;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            transaction_size: 1,
            key_universe: 50,
            function_pool: 20,
            value_zipf_exponent: 1.5,
            key_zipf_exponent: 0.9,
            xref_mean: 7.3,
        }
    }

    #[test]
    fn generated_transactions_apply_cleanly_to_the_instance() {
        let schema = bioinformatics_schema();
        let mut db = Database::new(schema);
        let mut generator = WorkloadGenerator::new(small_config(), 7);
        for _ in 0..200 {
            let updates = generator.next_transaction(p(1), &db);
            assert!(!updates.is_empty());
            db.apply_all(&updates).expect("generated transaction must apply");
        }
        assert!(db.total_tuples() > 0);
    }

    #[test]
    fn new_keys_come_with_cross_references() {
        let schema = bioinformatics_schema();
        let db = Database::new(schema);
        let mut generator = WorkloadGenerator::new(small_config(), 3);
        let updates = generator.next_transaction(p(1), &db);
        let function_inserts = updates.iter().filter(|u| u.relation == "Function").count();
        let xref_inserts = updates.iter().filter(|u| u.relation == "XRef").count();
        assert_eq!(function_inserts, 1);
        assert!(xref_inserts == 7 || xref_inserts == 8, "got {xref_inserts} xrefs");
    }

    #[test]
    fn xref_count_averages_near_the_configured_mean() {
        let mut generator = WorkloadGenerator::new(small_config(), 11);
        let total: usize = (0..2000).map(|_| generator.sample_xref_count()).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 7.3).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn existing_keys_are_revised_not_reinserted() {
        let schema = bioinformatics_schema();
        let mut db = Database::new(schema);
        let config = WorkloadConfig { key_universe: 1, ..small_config() };
        let mut generator = WorkloadGenerator::new(config, 5);
        // First transaction inserts the only key.
        let first = generator.next_transaction(p(1), &db);
        db.apply_all(&first).unwrap();
        // Every following transaction must revise it.
        for _ in 0..20 {
            let updates = generator.next_transaction(p(1), &db);
            for u in updates.iter().filter(|u| u.relation == "Function") {
                assert_eq!(u.kind(), UpdateKind::Modify);
            }
            db.apply_all(&updates).unwrap();
        }
    }

    #[test]
    fn multi_update_transactions_chain_within_the_transaction() {
        let schema = bioinformatics_schema();
        let mut db = Database::new(schema);
        let config = WorkloadConfig { transaction_size: 8, key_universe: 3, ..small_config() };
        let mut generator = WorkloadGenerator::new(config, 9);
        for _ in 0..50 {
            let updates = generator.next_transaction(p(1), &db);
            db.apply_all(&updates).expect("chained transaction must apply");
        }
    }

    #[test]
    fn batches_are_internally_consistent() {
        let schema = bioinformatics_schema();
        let mut db = Database::new(schema);
        let mut generator = WorkloadGenerator::new(small_config(), 21);
        let batch = generator.next_batch(p(2), &db, 25);
        assert_eq!(batch.len(), 25);
        for updates in &batch {
            db.apply_all(updates).expect("batch transactions must apply in order");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Carrying the batch's pending writes draws the same random numbers
        /// and emits the same updates as generating against a scratch copy of
        /// the instance, round after round against a growing instance, from
        /// contended single-key universes to sparse ones.
        #[test]
        fn batches_over_pending_writes_equal_batches_on_a_scratch_copy(
            seed in 0u64..1_000_000,
            key_universe in 1usize..40,
            transaction_size in 1usize..9,
            batch_sizes in prop::collection::vec(0usize..12, 1..6),
        ) {
            let config = WorkloadConfig { transaction_size, key_universe, ..small_config() };
            let mut overlay = WorkloadGenerator::new(config.clone(), seed);
            let mut reference = WorkloadGenerator::new(config, seed);
            let mut db = Database::new(bioinformatics_schema());
            for transactions in batch_sizes {
                let batch = overlay.next_batch(p(1), &db, transactions);
                let expected = reference.next_batch_on_scratch_copy(p(1), &db, transactions);
                prop_assert_eq!(&batch, &expected);
                for updates in &batch {
                    db.apply_all(updates).expect("batch transactions apply in order");
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_stream() {
        let schema = bioinformatics_schema();
        let db = Database::new(schema);
        let mut a = WorkloadGenerator::new(small_config(), 99);
        let mut b = WorkloadGenerator::new(small_config(), 99);
        for _ in 0..20 {
            assert_eq!(a.next_transaction(p(1), &db), b.next_transaction(p(1), &db));
        }
    }

    #[test]
    fn shared_pools_reproduce_the_owned_stream() {
        let schema = bioinformatics_schema();
        let db = Database::new(schema);
        let config = small_config();
        let pools = Arc::new(SwissProtPools::new(config.key_universe, config.function_pool));
        let mut owned = WorkloadGenerator::new(config.clone(), 99);
        let mut shared = WorkloadGenerator::with_shared_pools(config, Arc::clone(&pools), 99);
        for _ in 0..20 {
            assert_eq!(owned.next_transaction(p(1), &db), shared.next_transaction(p(1), &db));
        }
        // The sharing is real: no per-generator copy was made.
        assert_eq!(Arc::strong_count(&pools), 2);
    }

    #[test]
    #[should_panic(expected = "shared pool key universe mismatch")]
    fn mismatched_shared_pools_are_rejected() {
        let config = small_config();
        let pools = Arc::new(SwissProtPools::new(config.key_universe + 1, config.function_pool));
        let _ = WorkloadGenerator::with_shared_pools(config, pools, 1);
    }

    #[test]
    fn different_seeds_diverge() {
        let schema = bioinformatics_schema();
        let db = Database::new(schema);
        let mut a = WorkloadGenerator::new(small_config(), 1);
        let mut b = WorkloadGenerator::new(small_config(), 2);
        let streams_differ =
            (0..20).any(|_| a.next_transaction(p(1), &db) != b.next_transaction(p(1), &db));
        assert!(streams_differ);
    }
}
