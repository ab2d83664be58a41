//! Correctness checks, all untimed.
//!
//! Every run checks its first iteration against an independent reference
//! ([`cross_check`]); `verify` does the same for all five workloads, compares
//! the default seed's decision fingerprints with `golden.tsv`, and holds each
//! workload's stated reason against a traced iteration's budget
//! ([`budget_as_stated`]).

use crate::metrics::{budget_shares, Shares};
use crate::trace;
use crate::workloads::{
    churn_config, durable_config, run_plain, run_traced, run_wide, wide_config, Iteration, Size,
    Workload,
};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_store::CentralStore;
use orchestra_workload::{run_churn_scale, run_churn_scenario, ScaleDriver};
use std::path::Path;

/// Fingerprints pinned for the default seed: `workload⇥seed⇥fingerprint`.
const GOLDEN: &str = include_str!("../golden.tsv");

/// The pinned fingerprint of `workload` at `seed`, if `golden.tsv` has one.
pub fn golden(workload: Workload, seed: u64) -> Option<u64> {
    GOLDEN.lines().filter(|line| !line.starts_with('#')).find_map(|line| {
        let mut fields = line.split('\t');
        let (name, line_seed, hex) = (fields.next()?, fields.next()?, fields.next()?);
        (name == workload.name() && line_seed.parse() == Ok(seed))
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// Checks `it` — one iteration of `workload` at `seed` — against a reference
/// that reaches the same decisions by another route, counting each
/// comparison into `it`'s attempted and failed operations:
///
/// * `wide_insert`: the library's own sequential driver
///   (`orchestra_workload::run_churn_scale`) over the same configuration
///   must count the same sessions, publishes, transactions and updates;
/// * `service_wave`, `fabric_wave`: the in-process sequential driver at the
///   same seed must end with the same decision fingerprint and instances;
/// * `deep_conflict`: `orchestra_workload::run_churn_scenario` must report
///   the same totals;
/// * `durable_crash`: an uninterrupted run on an ephemeral store must end
///   with the same fingerprint and instances — the crash lost nothing that
///   had been synced and the replayed round decided as the original would
///   have. (The recovered catalogue is compared with the one at the sync
///   inside the workload itself, every iteration.)
pub fn cross_check(workload: Workload, size: Size, seed: u64, scratch: &Path, it: &mut Iteration) {
    match workload {
        Workload::WideInsert => {
            let reference = run_churn_scale(
                CentralStore::new(bioinformatics_schema()),
                &wide_config(size, seed),
                ScaleDriver::Sequential,
            );
            it.check("sessions equal the library driver's", it.sessions == reference.sessions);
            it.check("publishes equal the library driver's", it.publishes == reference.publishes);
            it.check(
                "transactions equal the library driver's",
                it.transactions == reference.transactions,
            );
            it.check("updates equal the library driver's", it.updates == reference.updates);
        }
        Workload::ServiceWave | Workload::FabricWave => {
            let reference = run_plain(Workload::WideInsert, size, seed, scratch);
            it.check("the sequential reference ran clean", reference.failed == 0);
            it.check(
                "decision fingerprint equals the sequential driver's",
                it.fingerprint == reference.fingerprint,
            );
            it.check(
                "instances equal the sequential driver's",
                it.instance_tuples == reference.instance_tuples,
            );
            it.check("sessions equal the sequential driver's", it.sessions == reference.sessions);
            it.check(
                "every session reported a virtual latency",
                it.virt_us.len() as u64 == it.sessions,
            );
        }
        Workload::DeepConflict => {
            let reference = run_churn_scenario(
                CentralStore::new(bioinformatics_schema()),
                &churn_config(size, seed),
            );
            let same = it.sessions == reference.reconciliations as u64
                && it.publishes == reference.publishes as u64
                && it.recon_accepted == reference.accepted as u64
                && it.recon_rejected == reference.rejected as u64
                && it.recon_deferred == reference.deferred as u64
                && it.resolutions == reference.resolutions as u64;
            it.check("totals equal run_churn_scenario's", same);
        }
        Workload::DurableCrash => {
            let reference = run_wide(&durable_config(size, seed), false, |store| store);
            it.check("the uninterrupted reference ran clean", reference.failed == 0);
            it.check(
                "decision fingerprint equals the uninterrupted ephemeral run's",
                it.fingerprint == reference.fingerprint,
            );
            it.check(
                "instances equal the uninterrupted ephemeral run's",
                it.instance_tuples == reference.instance_tuples,
            );
            it.check("sessions equal the uninterrupted run's", it.sessions == reference.sessions);
        }
    }
}

/// Whether a traced iteration at the measured size spent its wall where
/// [`Workload::why`] says it does — the property each workload is in the
/// benchmark for. The thresholds leave room around the measured shares
/// (README, "Reference numbers") for the host's mood, not for a different
/// workload: a shape change that hands `wide_insert` back to the engine, or
/// takes durability off `durable_crash`'s path, fails here.
pub fn budget_as_stated(workload: Workload, shares: &Shares) -> bool {
    match workload {
        Workload::WideInsert => shares.store >= 0.5 && shares.engine <= 0.4,
        Workload::DeepConflict => shares.gen + shares.engine >= 0.8 && shares.store <= 0.15,
        Workload::DurableCrash => shares.durability + shares.store >= 0.12 && shares.engine >= 0.5,
        Workload::ServiceWave => shares.store >= 0.45 && (0.02..=0.25).contains(&shares.serving),
        Workload::FabricWave => shares.serving >= 0.6,
    }
}

/// `verify`: one iteration of every workload at `seed`, cross-checked,
/// compared with `golden.tsv` where it pins the seed, and — at the measured
/// size — run once more traced to check its budget. Prints one line per
/// workload; returns the failed checks.
pub fn verify(seed: u64, size: Size, scratch: &Path) -> u64 {
    let mut failed = 0;
    for workload in Workload::ALL {
        let dir = scratch.join(format!("verify-{}", workload.name()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let mut it = run_plain(workload, size, seed, &dir);
        cross_check(workload, size, seed, &dir, &mut it);
        let pinned = if size == Size::Bench { golden(workload, seed) } else { None };
        if let Some(pinned) = pinned {
            it.check("decision fingerprint equals golden.tsv", it.fingerprint == pinned);
        }
        std::fs::remove_dir_all(&dir).ok();
        let mut budget = String::new();
        if size == Size::Bench {
            std::fs::create_dir_all(&dir).expect("scratch directory");
            trace::start();
            let traced = run_traced(workload, size, seed, &dir);
            let shares = budget_shares(&traced, &trace::finish());
            std::fs::remove_dir_all(&dir).ok();
            it.check(
                "the traced iteration runs clean and decides identically",
                traced.failed == 0 && traced.fingerprint == it.fingerprint,
            );
            it.check(
                "the budget is as the workload's reason states",
                budget_as_stated(workload, &shares),
            );
            budget = format!(
                "\tbudget gen {:.2} engine {:.2} store {:.2} durability {:.2} serving {:.2}",
                shares.gen, shares.engine, shares.store, shares.durability, shares.serving
            );
        }
        println!(
            "{}\tseed {seed}\tfingerprint {:016x}\t{}\tchecks and operations {}\tfailed {}\t{}{budget}",
            workload.name(),
            it.fingerprint,
            if pinned.is_some() { "golden pinned" } else { "no golden for this seed" },
            it.attempted,
            it.failed,
            if it.failed == 0 { "ok" } else { "FAILED" },
        );
        failed += it.failed;
    }
    failed
}
