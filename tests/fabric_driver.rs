//! Equivalence and starvation tests for the sharded fabric driver: on
//! arbitrary publish/reconcile schedules — scalar *and* causal-DAG epoch
//! mode — a store fabric of 1 or 4 shards, driven in-process or through its
//! framed services, reaches decisions identical to both the sequential
//! driver and the single-service driver; a fabric whose every shard admits
//! only one session at a time still completes every session without
//! changing a single decision; a session costs its home shard three frames
//! and every other shard none.

mod common;

use common::Turn::{EditPublish, EditPublishWave};
use common::{func, p, Turn};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction, TransactionId, Update,
};
use orchestra_obs::{Obs, Tracer};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{Result, StorageError};
use orchestra_store::{
    poll_ready, CentralStore, FabricClient, FabricConfig, ServiceConfig, SessionClient, SessionId,
    SessionInfo, ShardClient, ShardRouter, StoreFabric, StoreTiming, Timed, UpdateStore,
};
use orchestra_workload::{Driver, Step};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// With 4 participants over 4 shards every participant is homed on a
/// different shard, so every session streams candidates that were published
/// at the three other shards and replicated to its own.
const PARTICIPANTS: u32 = 4;
const SHARDS: usize = 4;
const KEY_POOL: usize = 6;
const VALUE_POOL: usize = 4;

/// Every turn executes a state-dependent edit and publishes it; after every
/// other one all participants reconcile as one wave.
const WAVES: &[Turn] = &[EditPublish, EditPublishWave];

fn fabric(shards: usize) -> StoreFabric {
    StoreFabric::new(bioinformatics_schema(), shards)
}

/// In-process fabric ≡ framed fabric ≡ single service ≡ sequential, for a
/// degenerate one-shard fabric and for one where every participant has a
/// shard of its own. Framed, a fabric is driven through one service per
/// shard: publishes route to the participant's home shard and fan out to
/// every replica, and each session runs at the reconciler's home shard.
/// In-process it is driven through its own `UpdateStore` methods — the same
/// publish fan-out over in-process shard clients.
fn assert_all_routes_agree(turns: &[Vec<Step>], causal: bool) {
    let mut steps = turns.concat();
    // Final catch-up wave.
    steps.push(Step::Reconcile((1..=PARTICIPANTS).map(p).collect()));
    let central = || CentralStore::new(bioinformatics_schema());
    let sequential = common::run(central(), PARTICIPANTS, causal, &steps);
    let service = Driver::service(ServiceConfig::default());
    let service = common::run_on(central(), PARTICIPANTS, causal, &steps, &service);
    assert_eq!(sequential, service, "single-service driver diverged");
    for shards in [1, SHARDS] {
        let driver = Driver::fabric(FabricConfig { shards, ..FabricConfig::default() });
        let framed = common::run_on(fabric(shards), PARTICIPANTS, causal, &steps, &driver);
        assert_eq!(sequential, framed, "framed {shards}-shard fabric diverged");
        let in_process = common::run(fabric(shards), PARTICIPANTS, causal, &steps);
        assert_eq!(sequential, in_process, "in-process {shards}-shard fabric diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scalar epochs: the fabric — framed and in-process, 1 and 4 shards —
    /// reaches decisions (accepted and rejected sets, final instances)
    /// identical to both the sequential and the single-service drivers on
    /// random publish/reconcile schedules, including schedules that force
    /// genuine cross-shard conflicts.
    #[test]
    fn fabric_driver_is_equivalent_on_scalar_schedules(
        turns in common::schedule(PARTICIPANTS, KEY_POOL, VALUE_POOL, WAVES, 1..24)
    ) {
        assert_all_routes_agree(&turns, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Causal-DAG epochs: the same equivalence with causal mode enabled, so
    /// fabric publishes carry client causal stamps to the home shard and
    /// replay them verbatim on every replica.
    #[test]
    fn fabric_driver_is_equivalent_on_causal_schedules(
        turns in common::schedule(PARTICIPANTS, KEY_POOL, VALUE_POOL, WAVES, 1..16)
    ) {
        assert_all_routes_agree(&turns, true);
    }
}

/// Every shard capped at one open session: every fabric session still
/// completes (a session holds one slot, at its home shard, so `Busy` retries
/// cannot deadlock), a shard only ever answers `Busy` to a participant homed
/// there, and the decisions are identical to an uncapped fabric.
#[test]
fn starved_shards_complete_every_cross_shard_session_with_identical_decisions() {
    const N: u32 = 6;

    let build = || {
        let mut system = common::confederation(fabric(SHARDS), N).system;
        // Everyone publishes a conflicting edit of one shared key, so every
        // session must see candidates published on every home shard.
        for i in 1..=N {
            let who = p(i);
            system
                .execute(
                    who,
                    vec![Update::insert("Function", func("org", "shared", &format!("f{i}")), who)],
                )
                .unwrap();
            system.publish(who).unwrap();
        }
        system
    };

    let mut starved = build();
    let obs = Obs::enabled();
    starved.set_observability(&obs);
    let starved_config = FabricConfig {
        shards: SHARDS,
        service: ServiceConfig { max_open_sessions: 1, workers: 1, ..ServiceConfig::default() },
    };
    let ids = starved.participant_ids();
    let report = starved.run_fabric_round(&[], &ids, &starved_config).unwrap();
    assert_eq!(report.results.len(), ids.len(), "every session must complete");
    let shed: u64 = report.shard_stats.iter().map(|stats| stats.busy_rejections).sum();
    assert!(shed > 0, "a cap of 1 per shard over {N} concurrent sessions must shed Begins");
    for (shard, stats) in report.shard_stats.iter().enumerate() {
        assert_eq!(stats.open_sessions, 0, "shard {shard} leaked a session past the round");
    }
    let field = |event: &orchestra_obs::TraceEvent, name: &str| {
        event.fields.iter().find(|(key, _)| *key == name).expect("field recorded").1
    };
    let sheds: Vec<_> =
        obs.tracer.events().into_iter().filter(|event| event.name == "admission.shed").collect();
    assert_eq!(sheds.len() as u64, shed, "one shed event per Busy");
    for event in &sheds {
        let who = p(field(event, "participant") as u32);
        let home = starved.store().router().home_of(who) as u64;
        assert_eq!(field(event, "shard"), home, "{who} was turned away by a shard not its home");
    }

    let mut roomy = build();
    roomy
        .run_fabric_round(&[], &ids, &FabricConfig { shards: SHARDS, ..FabricConfig::default() })
        .unwrap();
    for &id in &ids {
        assert_eq!(
            starved.store().accepted_set(id),
            roomy.store().accepted_set(id),
            "per-shard admission control changed decisions for {id}"
        );
        assert_eq!(starved.store().rejected_set(id), roomy.store().rejected_set(id));
    }
}

/// The fabric's frame arithmetic, whatever the shard count: a publish is one
/// request frame per shard (primary plus pinned replicas), and a session is
/// three — begin, one page, commit — all at the reconciler's home shard.
#[test]
fn a_session_costs_three_frames_and_a_publish_one_per_shard() {
    const N: u32 = 6;
    for shards in [1, 2, SHARDS] {
        let mut system = common::confederation(fabric(shards), N).system;
        for i in 1..=N {
            let tuple = func("org", &format!("prot{i}"), "f");
            system.execute(p(i), vec![Update::insert("Function", tuple, p(i))]).unwrap();
        }
        let ids = system.participant_ids();
        let config = FabricConfig { shards, ..FabricConfig::default() };
        let router = system.store().router();

        let published = system.run_fabric_round(&ids, &[], &config).unwrap();
        // Every shard serves every publish exactly once.
        assert_eq!(published.shard_frames, vec![u64::from(N); shards], "{shards} shards");

        let wave = system.run_fabric_round(&[], &ids, &config).unwrap();
        let busy: u64 = wave.shard_stats.iter().map(|stats| stats.busy_rejections).sum();
        assert_eq!(busy, 0, "the default cap admits the whole wave");
        let mut homed = vec![0u64; shards];
        for &id in &ids {
            homed[router.home_of(id)] += 1;
        }
        let expected: Vec<u64> = homed.iter().map(|sessions| 3 * sessions).collect();
        assert_eq!(wave.shard_frames, expected, "{shards} shards");
        assert_eq!(wave.shard_frames.iter().sum::<u64>(), 3 * u64::from(N));
    }
}

/// A shard client that records which session calls reach it, refuses them on
/// demand, and serves nothing else.
struct SessionProbe {
    shard: usize,
    refuse: bool,
    calls: Rc<RefCell<Vec<(usize, &'static str)>>>,
}

impl SessionProbe {
    fn called<T>(&self, call: &'static str, answer: T) -> Result<T> {
        self.calls.borrow_mut().push((self.shard, call));
        if self.refuse {
            return Err(StorageError::Session(format!("shard {} refused {call}", self.shard)));
        }
        Ok(answer)
    }
}

impl SessionClient for SessionProbe {
    fn participant(&self) -> ParticipantId {
        p(1)
    }

    async fn begin_session(&self) -> Result<Timed<SessionInfo>> {
        let info = SessionInfo {
            session: SessionId(10 + self.shard as u64),
            recno: ReconciliationId(1),
            epoch: Epoch::ZERO,
            pending: 0,
        };
        self.called("begin", Timed::new(info, StoreTiming::default()))
    }

    async fn drain_candidates(
        &self,
        _: SessionId,
        _: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        self.called("drain", Timed::new(Vec::new(), StoreTiming::default()))
    }

    async fn commit(
        &self,
        _: SessionId,
        _: &[TransactionId],
        _: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.called("commit", StoreTiming::default())
    }

    async fn abort(&self, _: SessionId) -> Result<()> {
        self.called("abort", ())
    }

    async fn publish(&self, _: Option<CausalStamp>, _: Vec<Transaction>) -> Result<Timed<Epoch>> {
        Err(StorageError::Session("the session probe serves sessions only".to_string()))
    }
}

impl ShardClient for SessionProbe {
    async fn replicate(
        &self,
        _: Option<CausalStamp>,
        _: Epoch,
        _: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        Err(StorageError::Session("the session probe serves sessions only".to_string()))
    }
}

fn probed_client(
    refuse: bool,
    calls: &Rc<RefCell<Vec<(usize, &'static str)>>>,
) -> FabricClient<SessionProbe> {
    let probes =
        (0..3).map(|shard| SessionProbe { shard, refuse, calls: Rc::clone(calls) }).collect();
    FabricClient::new(ShardRouter::new(3), probes, Tracer::disabled())
}

/// The one session contract of a fabric client: every session call —
/// abort included, of a known handle or an unknown one — reaches the home
/// shard and no other, with the home shard's own handle. The client keeps no
/// session state, so a refusal by the home shard leaves nothing behind on
/// the client: the next call is forwarded like the first.
#[test]
fn a_fabric_session_and_its_abort_reach_the_home_shard_only() {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let client = probed_client(false, &calls);
    let home = client.home_shard();
    assert_eq!(home, 1, "participant 1 of 3 shards");

    let info = poll_ready(client.begin_session()).unwrap().value;
    assert_eq!(info.session, SessionId(10 + home as u64), "the home shard's handle, as it is");
    poll_ready(client.drain_candidates(info.session, 4)).unwrap();
    poll_ready(client.commit(info.session, &[], &[])).unwrap();
    poll_ready(client.abort(info.session)).unwrap();
    poll_ready(client.abort(SessionId(99))).unwrap();
    let expected = ["begin", "drain", "commit", "abort", "abort"].map(|call| (home, call));
    assert_eq!(*calls.borrow(), expected, "a session frame went to a shard that is not home");

    // A refusing home shard: the error is the caller's, no other shard is
    // tried, and nothing is remembered — a second abort goes home again.
    calls.borrow_mut().clear();
    let refusing = probed_client(true, &calls);
    let error = poll_ready(refusing.abort(info.session)).unwrap_err();
    assert!(error.to_string().contains("shard 1 refused abort"), "got {error}");
    let error = poll_ready(refusing.commit(info.session, &[], &[])).unwrap_err();
    assert!(error.to_string().contains("shard 1 refused commit"), "got {error}");
    assert!(poll_ready(refusing.abort(info.session)).is_err());
    assert_eq!(*calls.borrow(), [(home, "abort"), (home, "commit"), (home, "abort")]);
}
