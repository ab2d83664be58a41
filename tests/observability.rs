//! Workspace-level guarantees of the observability layer (PR 10):
//!
//! * **Determinism** — a trace captured under the virtual clock is a pure
//!   function of the schedule: two identical service runs export
//!   byte-identical traces, and the fabric capture is reproducible too.
//! * **Decision invariance** — turning the tracer on changes no decision:
//!   fingerprints, session counts and state ratios are identical with
//!   tracing enabled and disabled, for the service and fabric drivers and
//!   for the sequential churn scenario, whose trace nests the engine's
//!   phase spans in `reconcile` spans.
//! * **Near-zero disabled cost** — a disabled tracer reduces every span and
//!   event call to one `Option` check; a comparative microbench pins that
//!   below the enabled tracer's cost.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_obs::{export, EventKind, Obs};
use orchestra_store::CentralStore;
use orchestra_workload::{
    run_churn_scale, run_churn_scale_fabric_observed, run_churn_scale_observed, run_churn_scenario,
    run_churn_scenario_observed, ChurnConfig, ScaleConfig, ScaleDriver, WorkloadConfig,
};
use std::collections::HashMap;

/// A schedule small enough for debug-build CI but large enough to exercise
/// publish fan-out, sessions, batching and the final catch-up wave.
fn mini_config() -> ScaleConfig {
    let mut config = ScaleConfig::quick();
    config.participants = 10;
    config.rounds = 2;
    config.service_max_open_sessions = 8;
    config
}

#[test]
fn identical_service_runs_export_byte_identical_traces() {
    let run = || {
        let obs = Obs::enabled();
        let result = run_churn_scale_observed(
            CentralStore::new(bioinformatics_schema()),
            &mini_config(),
            ScaleDriver::Service,
            &obs,
        );
        (obs.tracer.export(), result.decision_fingerprint)
    };
    let (trace_a, fingerprint_a) = run();
    let (trace_b, fingerprint_b) = run();
    assert_eq!(fingerprint_a, fingerprint_b);
    assert_eq!(trace_a, trace_b, "virtual-clock traces must be deterministic");
    // The capture is a real trace, not an empty header: it parses, and the
    // service-side vocabulary is present.
    let events = export::parse_text(&trace_a).unwrap();
    assert!(!events.is_empty());
    for name in [
        "service.publish_phase",
        "service.reconcile_phase",
        "session.begin",
        "publish",
        "participant.publish",
    ] {
        assert!(events.iter().any(|e| e.name == name), "trace lacks {name} events");
    }
    // Every publish the service served is also reported by its participant,
    // with the epoch it was assigned — on this path as on the in-process one.
    let served = events.iter().filter(|e| e.name == "publish").count();
    let reported = events.iter().filter(|e| e.name == "participant.publish").count();
    assert_eq!(reported, served, "one participant.publish per served publish");
}

#[test]
fn fabric_trace_capture_is_deterministic_and_shard_stamped() {
    let run = || {
        let obs = Obs::enabled();
        let result = run_churn_scale_fabric_observed(&mini_config(), &obs);
        (obs.tracer.export(), result.decision_fingerprint)
    };
    let (trace_a, fingerprint_a) = run();
    let (trace_b, fingerprint_b) = run();
    assert_eq!(fingerprint_a, fingerprint_b);
    assert_eq!(trace_a, trace_b);
    let events = export::parse_text(&trace_a).unwrap();
    // One participant.publish (participant, epoch, txns) per fabric publish
    // fan-out, as on every other path.
    let fan_outs = events
        .iter()
        .filter(|e| e.name == "fabric.publish" && e.kind == orchestra_obs::EventKind::Open)
        .count();
    let reported: Vec<_> = events.iter().filter(|e| e.name == "participant.publish").collect();
    assert!(fan_outs > 0 && reported.len() == fan_outs, "{} vs {fan_outs}", reported.len());
    for field in ["participant", "epoch", "txns"] {
        assert!(reported.iter().all(|e| e.fields.iter().any(|(k, _)| k.as_str() == field)));
    }
    let shards = mini_config().fabric_shards as u64;
    for shard in 0..shards {
        assert!(
            events
                .iter()
                .any(|e| e.fields.iter().any(|(k, v)| k.as_str() == "shard" && *v == shard)),
            "no trace event stamped shard={shard}"
        );
    }
}

#[test]
fn tracing_changes_no_decisions() {
    let config = mini_config();

    let dark =
        run_churn_scale(CentralStore::new(bioinformatics_schema()), &config, ScaleDriver::Service);
    let lit = run_churn_scale_observed(
        CentralStore::new(bioinformatics_schema()),
        &config,
        ScaleDriver::Service,
        &Obs::enabled(),
    );
    assert_eq!(dark.decision_fingerprint, lit.decision_fingerprint);
    assert_eq!(dark.sessions, lit.sessions);
    assert_eq!(dark.state_ratio, lit.state_ratio);

    let dark_fabric = run_churn_scale_fabric_observed(&config, &Obs::disabled());
    let lit_fabric = run_churn_scale_fabric_observed(&config, &Obs::enabled());
    assert_eq!(dark_fabric.decision_fingerprint, lit_fabric.decision_fingerprint);
    assert_eq!(dark_fabric.sessions, lit_fabric.sessions);
    assert_eq!(dark_fabric.state_ratio, lit_fabric.state_ratio);
    // And they all agree with each other — the service and fabric drivers
    // replay one schedule.
    assert_eq!(dark.decision_fingerprint, dark_fabric.decision_fingerprint);

    // The sequential churn scenario on a contended universe, so conflicts
    // are deferred and resolved, with the engine's phase spans on.
    let churn = ChurnConfig {
        participants: 4,
        rounds: 10,
        transactions_per_publish: 1,
        max_reconcile_interval: 3,
        resolve_every: 3,
        workload: WorkloadConfig {
            transaction_size: 1,
            key_universe: 12,
            function_pool: 8,
            value_zipf_exponent: 1.5,
            key_zipf_exponent: 1.2,
            xref_mean: 7.3,
        },
        seed: 11,
    };
    let dark_churn = run_churn_scenario(CentralStore::new(bioinformatics_schema()), &churn);
    let obs = Obs::enabled();
    let lit_churn =
        run_churn_scenario_observed(CentralStore::new(bioinformatics_schema()), &churn, &obs);
    assert!(dark_churn.deferred > 0 && dark_churn.resolutions > 0);
    assert_eq!(dark_churn.decision_fingerprint, lit_churn.decision_fingerprint);
    assert_eq!(dark_churn.state_ratio, lit_churn.state_ratio);
    let events = obs.tracer.events();
    let opened: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Open).collect();
    let name_of: HashMap<u64, &str> = opened.iter().map(|e| (e.span, e.name)).collect();
    for phase in ["check_state", "find_conflicts", "do_group", "apply", "update_soft_state"] {
        let spans: Vec<_> = opened.iter().filter(|e| e.name == phase).collect();
        assert!(!spans.is_empty(), "the trace has no {phase} span");
        for span in spans {
            assert_eq!(name_of.get(&span.parent), Some(&"reconcile"), "{phase} outside reconcile");
        }
    }
    // A resolution's rerun is one more `reconcile`, inside its span.
    let resolutions: Vec<_> = opened.iter().filter(|e| e.name == "conflict.resolve").collect();
    assert!(!resolutions.is_empty(), "the trace has no conflict.resolve span");
    for resolution in resolutions {
        let rerun = opened.iter().any(|e| e.name == "reconcile" && e.parent == resolution.span);
        assert!(rerun, "a resolution without its rerun");
    }
}

#[test]
fn disabled_tracer_costs_no_more_than_an_option_check() {
    const ITERS: u64 = 200_000;
    let time = |obs: &Obs| {
        let start = std::time::Instant::now();
        for i in 0..ITERS {
            let span = obs.tracer.span("bench.span", &[("i", i)]);
            span.event("bench.event", &[("i", i)]);
        }
        start.elapsed()
    };
    // Warm up allocators and caches on a throwaway enabled run.
    let _ = time(&Obs::enabled());

    let disabled = time(&Obs::disabled());
    let enabled_obs = Obs::enabled();
    let enabled = time(&enabled_obs);

    assert_eq!(enabled_obs.tracer.len(), 3 * ITERS as usize, "enabled run records 3 events/iter");
    // The disabled path does no locking, no allocation and no timestamping;
    // it must not cost more than the enabled path that does all three. (A
    // generous relative bound keeps this robust on noisy CI hosts.)
    assert!(
        disabled <= enabled,
        "disabled tracer ({disabled:?}) slower than enabled tracer ({enabled:?})"
    );
}
