//! Synthetic SWISS-PROT-style workload generation and experiment scenarios.
//!
//! The paper evaluates Orchestra on a synthetic workload modelled after the
//! process of updating a curated bioinformatics database: transactions of
//! insertions and replacements over a `Function(organism, protein, function)`
//! relation, with update values drawn from a Zipfian distribution (s = 1.5)
//! over the set of protein functions, and an average of 7.3 cross-reference
//! tuples inserted into a secondary table for every newly inserted primary
//! key. This crate reproduces that generator ([`generator`]) and drives whole
//! multi-participant experiments with it. An experiment is a schedule — a
//! `Vec` of [`Step`]s — applied to a [`Confederation`] under a [`Driver`]
//! ([`schedule`]); every runner ([`scenario`], [`scale`], [`crash`],
//! [`offline`], [`retention`]) builds one and folds the step outcomes into
//! the paper's metrics (state ratio, store time, local time) or its own. A
//! snapshot, a prune, a store crash and a participant rebuild are steps too,
//! so the crash and retention runners place them when they build the
//! schedule and call no store administration themselves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crash;
pub mod generator;
pub mod offline;
pub mod retention;
pub mod scale;
pub mod scenario;
pub mod schedule;
pub mod swissprot;
pub mod zipf;

pub use crash::{run_crash_restart_scenario, CrashChurnConfig, CrashChurnReport};
pub use generator::{WorkloadConfig, WorkloadGenerator};
pub use offline::{run_offline_scenario, EpochMode, OfflineChurnConfig, OfflineChurnResult};
pub use retention::{
    run_retention_scenario, RetentionChurnConfig, RetentionChurnResult, RetentionSample,
};
pub use scale::{
    decision_fingerprint, run_churn_scale, run_churn_scale_fabric_observed,
    run_churn_scale_observed, zipf_fanin_policies, ScaleConfig, ScaleDriver, ScaleRunResult,
};
pub use scenario::{
    mutual_trust_policies, run_churn_concurrent, run_churn_scenario, run_churn_scenario_observed,
    run_scenario, scenario_schedule, ChurnConfig, ChurnResult, ChurnSample, ScenarioConfig,
    ScenarioResult,
};
pub use schedule::{ChurnTotals, Confederation, Driver, Outcome, Step};
pub use swissprot::SwissProtPools;
pub use zipf::ZipfSampler;
