//! Equivalence and starvation tests for the sharded fabric driver: on
//! arbitrary publish/reconcile schedules — scalar *and* causal-DAG epoch
//! mode — a store fabric of 1 or 4 shards, driven in-process or through its
//! framed services, reaches decisions identical to both the sequential
//! driver and the single-service driver, and a fabric whose every shard
//! admits only one session at a time still completes every cross-shard
//! session without changing a single decision.

use orchestra::{CdssSystem, ParticipantConfig};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    CausalStamp, Epoch, KeyValue, ParticipantId, ReconciliationId, Transaction, TransactionId,
    TrustPolicy, Tuple, Update,
};
use orchestra_obs::Tracer;
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{Result, StorageError};
use orchestra_store::{
    poll_ready, CentralStore, FabricClient, FabricConfig, ServiceConfig, SessionClient, SessionId,
    SessionInfo, ShardClient, ShardRouter, StoreFabric, StoreTiming, Timed, UpdateStore,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn mutual_policies(n: u32) -> Vec<TrustPolicy> {
    (1..=n)
        .map(|i| {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            policy
        })
        .collect()
}

/// With 4 participants over 4 shards every participant is homed on a
/// different shard, so every session is a cross-shard merge.
const PARTICIPANTS: u32 = 4;
const SHARDS: usize = 4;
const KEY_POOL: usize = 6;
const VALUE_POOL: usize = 4;

/// One step of a schedule: `(participant, key, value, reconcile_wave)`.
/// Every step executes a state-dependent edit and publishes it; when
/// `reconcile_wave` is odd, all participants then reconcile as one wave.
type Op = (usize, usize, usize, u8);

/// Everything compared between the drivers, per participant: the final
/// instance contents and the durable accepted/rejected records.
type ParticipantSnapshot = (Vec<(KeyValue, Tuple)>, Vec<TransactionId>, Vec<TransactionId>);

fn execute<S: UpdateStore>(
    system: &mut CdssSystem<S>,
    who: ParticipantId,
    key: usize,
    value: usize,
) {
    let prot = format!("prot{key}");
    let new_tuple = func("org", &prot, &format!("f{value}"));
    let existing = system
        .participant(who)
        .unwrap()
        .instance()
        .value_at("Function", &KeyValue::of_text(&["org", &prot]));
    let update = match existing {
        None => Update::insert("Function", new_tuple, who),
        Some(current) => {
            if current == new_tuple {
                return;
            }
            Update::modify("Function", current, new_tuple, who)
        }
    };
    let _ = system.execute(who, vec![update]);
}

fn snapshots<S: UpdateStore>(system: &CdssSystem<S>) -> Vec<ParticipantSnapshot> {
    let sorted = |mut v: Vec<TransactionId>| {
        v.sort();
        v
    };
    system
        .participant_ids()
        .into_iter()
        .map(|id| {
            (
                system.participant(id).unwrap().instance().relation_contents("Function"),
                sorted(system.store().accepted_set(id).iter().copied().collect()),
                sorted(system.store().rejected_set(id).iter().copied().collect()),
            )
        })
        .collect()
}

/// The single-store deployment models the fabric is compared against.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    Sequential,
    Service,
}

/// Runs a schedule against one [`CentralStore`].
fn run_single(ops: &[Op], driver: Driver, causal: bool) -> Vec<ParticipantSnapshot> {
    let mut system =
        CdssSystem::new(bioinformatics_schema(), CentralStore::new(bioinformatics_schema()));
    for policy in mutual_policies(PARTICIPANTS) {
        system.add_participant(ParticipantConfig::new(policy)).unwrap();
    }
    if causal {
        system.enable_causal_mode().unwrap();
    }
    let config = ServiceConfig::default();
    let ids = system.participant_ids();
    let wave = |system: &mut CdssSystem<CentralStore>| match driver {
        Driver::Sequential => system.reconcile_all().map(|_| ()).unwrap(),
        Driver::Service => system.run_service_round(&[], &ids, &config).map(|_| ()).unwrap(),
    };
    for &(who, key, value, reconcile_wave) in ops {
        let who = p((who % PARTICIPANTS as usize) as u32 + 1);
        execute(&mut system, who, key % KEY_POOL, value % VALUE_POOL);
        match driver {
            Driver::Sequential => {
                system.publish(who).unwrap();
            }
            Driver::Service => {
                system.run_service_round(&[who], &[], &config).unwrap();
            }
        }
        if reconcile_wave % 2 == 1 {
            wave(&mut system);
        }
    }
    wave(&mut system);
    snapshots(&system)
}

/// Runs the same schedule against a [`StoreFabric`] of `shards` shards:
/// publishes route to the participant's home shard and fan out to every
/// replica, and each reconciliation session merges candidates from every
/// shard into one virtual timeline. `framed` drives it through one service
/// per shard (`run_fabric_round`); otherwise through the fabric's own
/// in-process `UpdateStore` methods (`publish` / `reconcile_all`) — the same
/// fan-out code over in-process shard clients.
fn run_fabric(ops: &[Op], causal: bool, shards: usize, framed: bool) -> Vec<ParticipantSnapshot> {
    let mut system =
        CdssSystem::new(bioinformatics_schema(), StoreFabric::new(bioinformatics_schema(), shards));
    for policy in mutual_policies(PARTICIPANTS) {
        system.add_participant(ParticipantConfig::new(policy)).unwrap();
    }
    if causal {
        system.enable_causal_mode().unwrap();
    }
    let config = FabricConfig { shards, ..FabricConfig::default() };
    let ids = system.participant_ids();
    let wave = |system: &mut CdssSystem<StoreFabric>| {
        if framed {
            system.run_fabric_round(&[], &ids, &config).unwrap();
        } else {
            system.reconcile_all().unwrap();
        }
    };
    for &(who, key, value, reconcile_wave) in ops {
        let who = p((who % PARTICIPANTS as usize) as u32 + 1);
        execute(&mut system, who, key % KEY_POOL, value % VALUE_POOL);
        if framed {
            system.run_fabric_round(&[who], &[], &config).unwrap();
        } else {
            system.publish(who).unwrap();
        }
        if reconcile_wave % 2 == 1 {
            wave(&mut system);
        }
    }
    wave(&mut system);
    snapshots(&system)
}

/// In-process fabric ≡ framed fabric ≡ single service ≡ sequential, for a
/// degenerate one-shard fabric and for one where every session is a
/// cross-shard merge.
fn assert_all_routes_agree(ops: &[Op], causal: bool) {
    let sequential = run_single(ops, Driver::Sequential, causal);
    let service = run_single(ops, Driver::Service, causal);
    assert_eq!(sequential, service, "single-service driver diverged");
    for shards in [1, SHARDS] {
        let framed = run_fabric(ops, causal, shards, true);
        assert_eq!(sequential, framed, "framed {shards}-shard fabric diverged");
        let in_process = run_fabric(ops, causal, shards, false);
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
        ops in prop::collection::vec(
            (0..PARTICIPANTS as usize, 0..KEY_POOL, 0..VALUE_POOL, 0..2u8),
            1..24,
        )
    ) {
        assert_all_routes_agree(&ops, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Causal-DAG epochs: the same equivalence with causal mode enabled, so
    /// fabric publishes carry client causal stamps to the home shard and
    /// replay them verbatim on every replica.
    #[test]
    fn fabric_driver_is_equivalent_on_causal_schedules(
        ops in prop::collection::vec(
            (0..PARTICIPANTS as usize, 0..KEY_POOL, 0..VALUE_POOL, 0..2u8),
            1..16,
        )
    ) {
        assert_all_routes_agree(&ops, true);
    }
}

/// Every shard capped at one open session: every cross-shard fabric session
/// still completes (ordered shard acquisition means `Busy` retries cannot
/// deadlock) and the decisions are identical to an uncapped fabric.
#[test]
fn starved_shards_complete_every_cross_shard_session_with_identical_decisions() {
    const N: u32 = 6;

    let build = || {
        let mut system = CdssSystem::new(
            bioinformatics_schema(),
            StoreFabric::new(bioinformatics_schema(), SHARDS),
        );
        for policy in mutual_policies(N) {
            system.add_participant(ParticipantConfig::new(policy)).unwrap();
        }
        // Everyone publishes a conflicting edit of one shared key, so every
        // session must merge candidates published on every home shard.
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

/// A shard client that only records aborts — and fails them on demand —
/// so the fan-out's abort contract can be checked on every shard.
struct AbortProbe {
    shard: usize,
    fail_abort: bool,
    aborted: Rc<RefCell<Vec<usize>>>,
}

fn refused<T>() -> Result<T> {
    Err(StorageError::Session("the abort probe serves sessions only".to_string()))
}

impl SessionClient for AbortProbe {
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
        Ok(Timed::new(info, StoreTiming::default()))
    }

    async fn drain_candidates(
        &self,
        _: SessionId,
        _: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        refused()
    }

    async fn commit(
        &self,
        _: SessionId,
        _: &[TransactionId],
        _: &[TransactionId],
    ) -> Result<StoreTiming> {
        refused()
    }

    async fn abort(&self, _: SessionId) -> Result<()> {
        self.aborted.borrow_mut().push(self.shard);
        if self.fail_abort {
            return Err(StorageError::Session(format!("shard {} abort failed", self.shard)));
        }
        Ok(())
    }

    async fn publish(&self, _: Option<CausalStamp>, _: Vec<Transaction>) -> Result<Timed<Epoch>> {
        refused()
    }
}

impl ShardClient for AbortProbe {
    async fn next_batch_with_epochs(
        &self,
        _: SessionId,
        _: usize,
    ) -> Result<Timed<(Vec<CandidateTransaction>, Vec<Epoch>)>> {
        refused()
    }

    async fn replicate(
        &self,
        _: Option<CausalStamp>,
        _: Epoch,
        _: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        refused()
    }
}

/// The one abort contract of every fabric session: an unknown handle is
/// a no-op, every shard is attempted even when an earlier shard's abort
/// fails (the first error is returned afterwards), and the handle is
/// released either way.
#[test]
fn fabric_abort_attempts_every_shard_and_always_releases_the_handle() {
    let aborted = Rc::new(RefCell::new(Vec::new()));
    let probes = (0..3)
        .map(|shard| AbortProbe { shard, fail_abort: shard == 0, aborted: Rc::clone(&aborted) })
        .collect();
    let client = FabricClient::new(ShardRouter::new(3), probes, Tracer::disabled());

    poll_ready(client.abort(SessionId(99))).unwrap();
    assert!(aborted.borrow().is_empty(), "an unknown handle reaches no shard");

    let info = poll_ready(client.begin_session()).unwrap().value;
    let error = poll_ready(client.abort(info.session)).unwrap_err();
    assert!(error.to_string().contains("shard 0 abort failed"), "got {error}");
    assert_eq!(*aborted.borrow(), vec![0, 1, 2], "later shards must still be aborted");

    poll_ready(client.abort(info.session)).unwrap();
    assert_eq!(aborted.borrow().len(), 3, "the handle was released by the failed abort");
    assert!(poll_ready(client.commit(info.session, &[], &[])).is_err());
}
