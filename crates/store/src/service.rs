//! Confederation-as-a-service: the update store served over framed
//! request/response messages.
//!
//! Called in-process, the [`UpdateStore`] trait needs one OS thread per
//! reconciling participant at confederation scale. This module turns the
//! store into a *service*: the paged session protocol
//! ([`UpdateStore::begin_reconciliation`] / [`UpdateStore::next_batch`] /
//! [`UpdateStore::commit_reconciliation`] / [`UpdateStore::abort_reconciliation`])
//! plus the one publish — stamped in causal mode, pinned when a fabric
//! replicates it, served by whichever of the trait's four publish methods
//! that combination names — become [`StoreRequest`] / [`StoreResponse`]
//! frames carried over a [`SimNetwork`], served by a **bounded worker pool**
//! on the hand-rolled [`orchestra_rt`] runtime.
//!
//! # Architecture
//!
//! * Requests are routed to `participant % workers`, one bounded inbox per
//!   worker, so every participant's frames are handled **FIFO** by a single
//!   worker while distinct participants spread across the pool.
//! * Inboxes are bounded: a full inbox *parks* the sending client task until
//!   the worker drains (real backpressure, not a simulated flag).
//! * Workers drain their inbox in batches (up to
//!   [`ServiceConfig::max_batch`] frames per wake-up) and pay the simulated
//!   store access latency **once per batch** — the request-batching win.
//! * Admission control: at most [`ServiceConfig::max_open_sessions`]
//!   reconciliation sessions may be open at once. A `Begin` past the cap is
//!   answered with the retryable [`StoreResponse::Busy`];
//!   [`ServiceClient::begin_session`] retries with linear virtual backoff.
//! * Latency is virtual: each frame costs
//!   [`ServiceConfig::frame_latency_us`] on the driver's
//!   [`VirtualClock`], so thousands of in-flight sessions overlap their
//!   wait time on one OS thread.

use crate::api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use crate::client::{publish_on, SessionClient, ShardClient};
use crate::protocol::{StoreRequest, StoreResponse};
use orchestra_model::{CausalStamp, Epoch, ParticipantId, Transaction, TransactionId};
use orchestra_net::{NodeId, SimNetwork, Transport};
use orchestra_obs::{key_with, Counter, Histogram, Obs, Tracer};
use orchestra_recon::CandidateTransaction;
use orchestra_rt::{
    channel, oneshot, LocalExecutor, OneshotSender, Receiver, Sender, VirtualClock,
};
use orchestra_storage::{Result, StorageError};
use rustc_hash::FxHashSet;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Base backoff before a client retries a [`StoreResponse::Busy`] `Begin`, in
/// microseconds of virtual time — one message latency; attempt `n` waits
/// `n` times as long.
const BUSY_BACKOFF_US: u64 = SimNetwork::PAPER_LATENCY_US;

/// Tuning knobs for a [`StoreService`]. Set the public fields over
/// `..ServiceConfig::default()`; [`StoreService::start`] checks
/// [`ServiceConfig::validate`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker tasks serving requests. Participants are sharded across
    /// workers by id, so this bounds store-call concurrency.
    pub workers: usize,
    /// Frames a worker inbox holds before senders park (backpressure).
    pub inbox_capacity: usize,
    /// Admission-control cap: reconciliation sessions open at once before
    /// `Begin` is answered [`StoreResponse::Busy`]. A fabric shard's service
    /// only ever opens sessions of the participants homed at that shard, so
    /// there the cap is per shard.
    pub max_open_sessions: usize,
    /// Frames a worker drains per wake-up, amortising one store access
    /// latency over the batch.
    pub max_batch: usize,
    /// Virtual one-way latency per frame, in microseconds. The default is
    /// the paper's 500 µs per message.
    pub frame_latency_us: u64,
    /// Virtual store access latency a worker pays per drained batch, in
    /// microseconds.
    pub store_latency_us: u64,
    /// `Busy` retries before [`ServiceClient::begin_session`] gives up with
    /// an admission-control error.
    pub busy_retries: u32,
    /// The observability sink the service reports into: request/shed/batch
    /// counters always, trace events when the sink's tracer is enabled. The
    /// default is a private registry with a disabled tracer, so an
    /// unobserved service costs only relaxed atomics.
    pub obs: Obs,
    /// The fabric shard this service is, if any: labels the service's
    /// metric keys (`service.requests{shard=N}`) and stamps every trace
    /// event with a `shard` field so per-shard skew is directly visible.
    pub obs_shard: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            inbox_capacity: 64,
            max_open_sessions: 1024,
            max_batch: 16,
            frame_latency_us: SimNetwork::PAPER_LATENCY_US,
            store_latency_us: 0,
            busy_retries: 10_000,
            obs: Obs::disabled(),
            obs_shard: None,
        }
    }
}

impl ServiceConfig {
    /// Checks the config's invariants: at least one worker, at least one
    /// frame per worker batch, a non-zero inbox and a non-zero session cap.
    ///
    /// ```
    /// use orchestra_store::ServiceConfig;
    /// let config = ServiceConfig { workers: 4, max_open_sessions: 64, ..ServiceConfig::default() };
    /// assert!(config.validate().is_ok());
    /// assert!(ServiceConfig { workers: 0, ..config }.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<()> {
        fn invalid(what: &str) -> StorageError {
            StorageError::Session(format!("service config: {what}"))
        }
        if self.workers < 1 {
            return Err(invalid("a store service needs at least one worker"));
        }
        if self.max_batch < 1 {
            return Err(invalid("a worker batch holds at least one frame"));
        }
        if self.inbox_capacity < 1 {
            return Err(invalid("a worker inbox holds at least one frame"));
        }
        if self.max_open_sessions < 1 {
            return Err(invalid("admission control needs at least one session slot"));
        }
        Ok(())
    }
}

/// A frame in flight through the in-process transport: the request plus the
/// reply slot and the sender's overlay node (for reply-frame accounting).
///
/// The envelope is deliberately *not* the wire shape: the wire shape is the
/// [`StoreRequest`] / [`StoreResponse`] enums of the
/// [`protocol`](crate::protocol) module. The envelope only exists because
/// the simulated transport delivers frames through in-process channels and
/// needs a reply slot; a socket transport would carry encoded frames instead.
struct Envelope {
    from: NodeId,
    request: StoreRequest,
    reply: OneshotSender<StoreResponse>,
}

/// Formats a service metric key, labelled with the fabric shard when the
/// service is one shard of a fabric.
fn metric_key(name: &str, shard: Option<u64>) -> String {
    match shard {
        Some(shard) => key_with(name, "shard", shard),
        None => name.to_string(),
    }
}

/// Counters and admission state shared by the workers and the handle.
///
/// The counters are registry handles, so every service reporting into the
/// same [`Obs`] accumulates into one sink; [`StoreService::stats`] reports
/// the *delta* against the values captured at start, keeping the
/// [`ServiceStats`] view per-service.
struct ServiceShared {
    open_sessions: RefCell<FxHashSet<SessionId>>,
    max_open_sessions: usize,
    requests: Counter,
    busy_rejections: Counter,
    batches: Counter,
    /// Frames drained per worker wake-up — the observed queue depth.
    batch_frames: Histogram,
    /// Counter values when this service started (shared registries are
    /// cumulative across services).
    base: ServiceStats,
    tracer: Tracer,
    shard: Option<u64>,
}

impl ServiceShared {
    /// Records an instant trace event, stamping the fabric shard when set.
    /// A disabled tracer reduces this to one branch.
    fn trace(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if !self.tracer.is_enabled() {
            return;
        }
        match self.shard {
            Some(shard) => {
                let mut all = Vec::with_capacity(fields.len() + 1);
                all.extend_from_slice(fields);
                all.push(("shard", shard));
                self.tracer.event(name, &all);
            }
            None => self.tracer.event(name, fields),
        }
    }
}

/// A snapshot of the service's request counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Request frames served (excluding `Busy` rejections).
    pub requests: u64,
    /// `Begin` frames rejected by admission control.
    pub busy_rejections: u64,
    /// Worker wake-ups; `requests / batches` is the achieved batching
    /// factor.
    pub batches: u64,
    /// Sessions open right now.
    pub open_sessions: u64,
}

impl ServiceStats {
    /// Folds another snapshot's counters into this one (drivers that start
    /// one service per phase accumulate across phases). `open_sessions` is
    /// point-in-time and taken from `other`.
    pub fn absorb(&mut self, other: ServiceStats) {
        self.requests += other.requests;
        self.busy_rejections += other.busy_rejections;
        self.batches += other.batches;
        self.open_sessions = other.open_sessions;
    }
}

/// The server half: a bounded worker pool serving [`StoreRequest`] frames
/// against an [`UpdateStore`], spawned onto a [`LocalExecutor`].
///
/// The handle is not generic over the store: workers capture the store
/// reference at [`StoreService::start`] time. Dropping the handle (or calling
/// [`StoreService::shutdown`]) closes the routes — workers drain what is
/// queued, then exit when the last [`ServiceClient`] is gone.
pub struct StoreService {
    server: NodeId,
    clock: VirtualClock,
    net: Rc<dyn Transport>,
    routes: RefCell<Option<Rc<Vec<Sender<Envelope>>>>>,
    shared: Rc<ServiceShared>,
    frame_latency_us: u64,
    busy_retries: u32,
    /// The store's causal mode, read once at start and handed to clients.
    causal: bool,
}

impl StoreService {
    /// The server's overlay node id.
    pub fn server_node() -> NodeId {
        NodeId::hash_str("store-service")
    }

    /// The overlay node id of fabric shard `shard`'s server.
    pub fn shard_server_node(shard: usize) -> NodeId {
        NodeId::hash_str(&format!("store-service/shard-{shard}"))
    }

    /// The overlay node id a participant's client frames originate from.
    fn client_node(participant: ParticipantId) -> NodeId {
        NodeId::hash_u64(0x5e51_0000_0000u64 + u64::from(participant.as_u32()))
    }

    /// Starts the service under the default server node; see
    /// [`StoreService::start_at`].
    pub fn start<'a, S: UpdateStore + ?Sized>(
        store: &'a S,
        config: &ServiceConfig,
        ex: &mut LocalExecutor<'a>,
        net: Rc<dyn Transport>,
    ) -> StoreService {
        StoreService::start_at(store, config, ex, net, StoreService::server_node())
    }

    /// Starts the service as overlay node `server`: spawns `config.workers`
    /// worker tasks onto `ex`, each serving its own bounded inbox against
    /// `store`. Frame traffic is charged to the `net` transport; latencies
    /// use the executor's [`VirtualClock`]. A fabric starts one service per
    /// shard, each under its own [`StoreService::shard_server_node`]. The
    /// store's causal mode is read here, once, for the clients to report.
    ///
    /// Panics if the config violates its invariants; call
    /// [`ServiceConfig::validate`] first to surface the violation as a typed
    /// error instead.
    pub fn start_at<'a, S: UpdateStore + ?Sized>(
        store: &'a S,
        config: &ServiceConfig,
        ex: &mut LocalExecutor<'a>,
        net: Rc<dyn Transport>,
        server: NodeId,
    ) -> StoreService {
        if let Err(error) = config.validate() {
            panic!("invalid service config: {error}");
        }
        let clock = ex.clock();
        let metrics = &config.obs.metrics;
        let requests = metrics.counter(&metric_key("service.requests", config.obs_shard));
        let busy_rejections =
            metrics.counter(&metric_key("service.busy_rejections", config.obs_shard));
        let batches = metrics.counter(&metric_key("service.batches", config.obs_shard));
        let batch_frames = metrics.histogram(&metric_key("service.batch_frames", config.obs_shard));
        let base = ServiceStats {
            requests: requests.get(),
            busy_rejections: busy_rejections.get(),
            batches: batches.get(),
            open_sessions: 0,
        };
        let shared = Rc::new(ServiceShared {
            open_sessions: RefCell::new(FxHashSet::default()),
            max_open_sessions: config.max_open_sessions,
            requests,
            busy_rejections,
            batches,
            batch_frames,
            base,
            tracer: config.obs.tracer.clone(),
            shard: config.obs_shard,
        });
        let mut routes = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = channel(config.inbox_capacity);
            routes.push(tx);
            ex.spawn(worker(
                store,
                rx,
                Rc::clone(&shared),
                Rc::clone(&net),
                server,
                clock.clone(),
                config.store_latency_us,
                config.max_batch,
            ));
        }
        StoreService {
            server,
            clock,
            net,
            routes: RefCell::new(Some(Rc::new(routes))),
            shared,
            frame_latency_us: config.frame_latency_us,
            busy_retries: config.busy_retries,
            causal: store.causal_mode(),
        }
    }

    /// A client bound to `participant`. Panics after
    /// [`StoreService::shutdown`].
    pub fn client_for(&self, participant: ParticipantId) -> ServiceClient {
        let routes = self.routes.borrow();
        let routes = routes.as_ref().expect("store service is shut down");
        ServiceClient {
            participant,
            node: StoreService::client_node(participant),
            server: self.server,
            clock: self.clock.clone(),
            net: Rc::clone(&self.net),
            routes: Rc::clone(routes),
            frame_latency_us: self.frame_latency_us,
            busy_retries: self.busy_retries,
            tracer: self.shared.tracer.clone(),
            shard: self.shared.shard,
            causal: self.causal,
        }
    }

    /// A snapshot of the request counters: this service's own traffic, i.e.
    /// the delta against the shared sink since the service started.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.shared.requests.get().saturating_sub(self.shared.base.requests),
            busy_rejections: self
                .shared
                .busy_rejections
                .get()
                .saturating_sub(self.shared.base.busy_rejections),
            batches: self.shared.batches.get().saturating_sub(self.shared.base.batches),
            open_sessions: self.shared.open_sessions.borrow().len() as u64,
        }
    }

    /// Closes the service: drops the routes (workers exit once the queued
    /// frames and the last live client are gone). Idempotent; also run on
    /// drop.
    pub fn shutdown(&self) {
        self.routes.borrow_mut().take();
    }
}

impl Drop for StoreService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: drain the inbox in batches, pay the store latency once per
/// batch, serve each frame synchronously against the store, reply through
/// the envelope's oneshot.
#[allow(clippy::too_many_arguments)]
async fn worker<S: UpdateStore + ?Sized>(
    store: &S,
    mut inbox: Receiver<Envelope>,
    shared: Rc<ServiceShared>,
    net: Rc<dyn Transport>,
    server: NodeId,
    clock: VirtualClock,
    store_latency_us: u64,
    max_batch: usize,
) {
    while let Some(first) = inbox.recv().await {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match inbox.try_recv() {
                Some(envelope) => batch.push(envelope),
                None => break,
            }
        }
        shared.batches.inc();
        shared.batch_frames.record(batch.len() as u64);
        if store_latency_us > 0 {
            clock.sleep_us(store_latency_us).await;
        }
        for envelope in batch {
            let response = serve(store, &shared, envelope.request);
            net.send_frame(server, envelope.from, response.frame_bytes());
            // A send error means the client gave up on the reply; the
            // store-side effect stands either way.
            let _ = envelope.reply.send(response);
        }
    }
}

/// Serves one frame against the store (synchronous store call).
fn serve<S: UpdateStore + ?Sized>(
    store: &S,
    shared: &ServiceShared,
    request: StoreRequest,
) -> StoreResponse {
    if let StoreRequest::Begin { participant } = &request {
        if shared.open_sessions.borrow().len() >= shared.max_open_sessions {
            shared.busy_rejections.inc();
            shared.trace("admission.shed", &[("participant", u64::from(participant.as_u32()))]);
            return StoreResponse::Busy;
        }
    }
    shared.requests.inc();
    match request {
        StoreRequest::Begin { participant } => match store.begin_reconciliation(participant) {
            Ok(timed) => {
                shared.open_sessions.borrow_mut().insert(timed.value.session);
                shared.trace(
                    "session.begin",
                    &[
                        ("participant", u64::from(participant.as_u32())),
                        ("pending", timed.value.pending as u64),
                    ],
                );
                StoreResponse::Began(timed.value)
            }
            Err(error) => StoreResponse::Failed(error.to_string()),
        },
        StoreRequest::NextBatch { session, max_candidates } => {
            match store.next_batch(session, max_candidates) {
                Ok(timed) => {
                    shared.trace("session.batch", &[("frames", timed.value.len() as u64)]);
                    StoreResponse::Batch(timed.value)
                }
                Err(error) => StoreResponse::Failed(error.to_string()),
            }
        }
        StoreRequest::Commit { session, accepted, rejected } => {
            match store.commit_reconciliation(session, &accepted, &rejected) {
                Ok(_) => {
                    shared.open_sessions.borrow_mut().remove(&session);
                    shared.trace(
                        "session.commit",
                        &[("accepted", accepted.len() as u64), ("rejected", rejected.len() as u64)],
                    );
                    StoreResponse::Committed
                }
                // The session stays open on a failed commit: the client
                // aborts it, releasing the admission slot then.
                Err(error) => StoreResponse::Failed(error.to_string()),
            }
        }
        StoreRequest::Abort { session } => match store.abort_reconciliation(session) {
            Ok(()) => {
                shared.open_sessions.borrow_mut().remove(&session);
                StoreResponse::Aborted
            }
            Err(error) => StoreResponse::Failed(error.to_string()),
        },
        StoreRequest::Publish { participant, stamp, pinned, transactions } => {
            // A pinned publish is a fabric shard's replica of the batch.
            let event = if pinned.is_some() { "replicate" } else { "publish" };
            let publisher = stamp.as_ref().map_or(participant, |stamp| stamp.publisher);
            let txns = transactions.len() as u64;
            match publish_on(store, participant, stamp, pinned, transactions) {
                Ok(Timed { value: epoch, .. }) => {
                    let publisher = u64::from(publisher.as_u32());
                    let fields =
                        [("participant", publisher), ("epoch", epoch.as_u64()), ("txns", txns)];
                    shared.trace(event, &fields);
                    StoreResponse::Published(epoch)
                }
                Err(error) => StoreResponse::Failed(error.to_string()),
            }
        }
    }
}

fn remote_error(message: String) -> StorageError {
    StorageError::Session(format!("service: {message}"))
}

fn protocol_error(expected: &str, got: &StoreResponse) -> StorageError {
    StorageError::Session(format!("protocol error: expected {expected}, got {}", got.label()))
}

/// The client half: issues framed requests for one participant, charging
/// frame traffic to the [`SimNetwork`] and frame latency to the
/// [`VirtualClock`]. Cloning is cheap; clones share the routes.
#[derive(Clone)]
pub struct ServiceClient {
    participant: ParticipantId,
    node: NodeId,
    server: NodeId,
    clock: VirtualClock,
    net: Rc<dyn Transport>,
    routes: Rc<Vec<Sender<Envelope>>>,
    frame_latency_us: u64,
    busy_retries: u32,
    tracer: Tracer,
    shard: Option<u64>,
    causal: bool,
}

impl ServiceClient {
    /// Issues one framed request and awaits its response. Charges the
    /// request frame, sleeps the one-way frame latency, parks while the
    /// worker inbox is full (backpressure), then sleeps the reply frame's
    /// latency once the worker answers.
    pub async fn request(&self, request: StoreRequest) -> Result<StoreResponse> {
        self.net.send_frame(self.node, self.server, request.frame_bytes());
        self.clock.sleep_us(self.frame_latency_us).await;
        let (reply, response) = oneshot();
        let worker = self.participant.as_u32() as usize % self.routes.len();
        self.routes[worker]
            .send(Envelope { from: self.node, request, reply })
            .await
            .map_err(|_| StorageError::Session("store service is shut down".to_string()))?;
        let response = response.await.ok_or_else(|| {
            StorageError::Session("store service dropped the request".to_string())
        })?;
        self.clock.sleep_us(self.frame_latency_us).await;
        Ok(response)
    }

    /// The store cost of a call that started at `start_us`: the virtual time
    /// its frames took, queueing at the service included.
    fn cost_since(&self, start_us: u64) -> StoreTiming {
        let network = Duration::from_micros(self.clock.now_us() - start_us);
        StoreTiming { compute: Duration::ZERO, network }
    }

    /// Issues a publish request, pinned at `pinned` when it replicates.
    async fn published(
        &self,
        stamp: Option<CausalStamp>,
        pinned: Option<Epoch>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        let start_us = self.clock.now_us();
        let participant = self.participant;
        match self
            .request(StoreRequest::Publish { participant, stamp, pinned, transactions })
            .await?
        {
            StoreResponse::Published(epoch) => Ok(Timed::new(epoch, self.cost_since(start_us))),
            StoreResponse::Failed(message) => Err(remote_error(message)),
            other => Err(protocol_error("Published", &other)),
        }
    }
}

impl SessionClient for ServiceClient {
    fn participant(&self) -> ParticipantId {
        self.participant
    }

    /// The mode the service read from its store when it started.
    fn causal_mode(&self) -> bool {
        self.causal
    }

    /// Opens a reconciliation session, retrying [`StoreResponse::Busy`]
    /// admission rejections with linear virtual backoff.
    async fn begin_session(&self) -> Result<Timed<SessionInfo>> {
        let start_us = self.clock.now_us();
        let mut attempt = 0u32;
        loop {
            match self.request(StoreRequest::Begin { participant: self.participant }).await? {
                StoreResponse::Began(info) => {
                    return Ok(Timed::new(info, self.cost_since(start_us)))
                }
                StoreResponse::Busy => {
                    if attempt >= self.busy_retries {
                        return Err(StorageError::Session(
                            "admission control: service stayed at capacity through every retry"
                                .to_string(),
                        ));
                    }
                    attempt += 1;
                    let wait_us = BUSY_BACKOFF_US * u64::from(attempt);
                    if self.tracer.is_enabled() {
                        let mut fields = vec![
                            ("participant", u64::from(self.participant.as_u32())),
                            ("attempt", u64::from(attempt)),
                            ("wait_us", wait_us),
                        ];
                        if let Some(shard) = self.shard {
                            fields.push(("shard", shard));
                        }
                        self.tracer.event("admission.backoff", &fields);
                    }
                    self.clock.sleep_us(wait_us).await;
                }
                StoreResponse::Failed(message) => return Err(remote_error(message)),
                other => return Err(protocol_error("Began or Busy", &other)),
            }
        }
    }

    /// Pages the session to its end, stopping at the first short page.
    async fn drain_candidates(
        &self,
        session: SessionId,
        batch_size: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let max_candidates = batch_size.max(1);
        let start_us = self.clock.now_us();
        let mut drained = Vec::new();
        loop {
            let page =
                match self.request(StoreRequest::NextBatch { session, max_candidates }).await? {
                    StoreResponse::Batch(candidates) => candidates,
                    StoreResponse::Failed(message) => return Err(remote_error(message)),
                    other => return Err(protocol_error("Batch", &other)),
                };
            let exhausted = page.len() < max_candidates;
            drained.extend(page);
            if exhausted {
                return Ok(Timed::new(drained, self.cost_since(start_us)));
            }
        }
    }

    async fn commit(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        let start_us = self.clock.now_us();
        let request = StoreRequest::Commit {
            session,
            accepted: accepted.to_vec(),
            rejected: rejected.to_vec(),
        };
        match self.request(request).await? {
            StoreResponse::Committed => Ok(self.cost_since(start_us)),
            StoreResponse::Failed(message) => Err(remote_error(message)),
            other => Err(protocol_error("Committed", &other)),
        }
    }

    async fn abort(&self, session: SessionId) -> Result<()> {
        match self.request(StoreRequest::Abort { session }).await? {
            StoreResponse::Aborted => Ok(()),
            StoreResponse::Failed(message) => Err(remote_error(message)),
            other => Err(protocol_error("Aborted", &other)),
        }
    }

    async fn publish(
        &self,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(stamp, None, transactions).await
    }
}

impl ShardClient for ServiceClient {
    async fn replicate(
        &self,
        stamp: Option<CausalStamp>,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.published(stamp, Some(epoch), transactions).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::central::CentralStore;
    use crate::client::drained;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{TrustPolicy, Tuple, Update};
    use orchestra_storage::RetentionPolicy;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn txn(i: u32, j: u64, key: &str) -> Transaction {
        let tuple = Tuple::of_text(&["org", key, "f"]);
        Transaction::from_parts(p(i), j, vec![Update::insert("Function", tuple, p(i))]).unwrap()
    }

    /// A store where participants `1..=n` all trust each other at priority 1.
    fn mutual_store(n: u32) -> CentralStore {
        let s = CentralStore::new(bioinformatics_schema());
        for i in 1..=n {
            let mut policy = TrustPolicy::new(p(i));
            for j in 1..=n {
                if i != j {
                    policy = policy.trusting(p(j), 1u32);
                }
            }
            s.register_participant(policy);
        }
        s
    }

    fn all_member_ids(candidates: &[CandidateTransaction]) -> Vec<TransactionId> {
        let mut seen = FxHashSet::default();
        let mut ids = Vec::new();
        for candidate in candidates {
            for (id, _) in &candidate.members {
                if seen.insert(*id) {
                    ids.push(*id);
                }
            }
        }
        ids
    }

    /// Drives `net`-framed traffic: publishes from 1 and 2, accept-all
    /// reconciliations for everyone, all through the service; returns the
    /// virtual completion times of the reconcile sessions.
    fn serve_round(s: &CentralStore, config: &ServiceConfig, n: u32) -> (ServiceStats, u64) {
        let clock = VirtualClock::new();
        let mut ex = LocalExecutor::new(clock.clone());
        let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
        let service = StoreService::start(s, config, &mut ex, Rc::clone(&net) as Rc<dyn Transport>);

        let publisher = service.client_for(p(1));
        let publisher2 = service.client_for(p(2));
        ex.spawn(async move {
            publisher.publish(None, vec![txn(1, 0, "k1")]).await.unwrap();
            publisher2.publish(None, vec![txn(2, 0, "k2")]).await.unwrap();
        });
        assert_eq!(ex.run(), config.workers);

        for i in 1..=n {
            let client = service.client_for(p(i));
            ex.spawn(async move {
                let info = client.begin_session().await.unwrap().value;
                let candidates = client.drain_candidates(info.session, 8).await.unwrap().value;
                let accepted = all_member_ids(&candidates);
                client.commit(info.session, &accepted, &[]).await.unwrap();
            });
        }
        assert_eq!(ex.run(), config.workers);

        let stats = service.stats();
        service.shutdown();
        assert_eq!(ex.run(), 0);
        (stats, clock.now_us())
    }

    #[test]
    fn framed_protocol_matches_direct_store_access() {
        let served = mutual_store(3);
        let (stats, elapsed_us) = serve_round(&served, &ServiceConfig::default(), 3);

        // The same schedule driven through the in-process trait.
        let direct = mutual_store(3);
        direct.publish(p(1), vec![txn(1, 0, "k1")]).unwrap();
        direct.publish(p(2), vec![txn(2, 0, "k2")]).unwrap();
        for i in 1..=3 {
            let (info, candidates) = drained(&direct, p(i), 8).value;
            let accepted = all_member_ids(&candidates);
            direct.commit_reconciliation(info.session, &accepted, &[]).unwrap();
        }

        for i in 1..=3 {
            assert_eq!(served.accepted_set(p(i)), direct.accepted_set(p(i)), "participant {i}");
            assert_eq!(served.epoch_cursor(p(i)), direct.epoch_cursor(p(i)));
            assert_eq!(served.current_reconciliation(p(i)), direct.current_reconciliation(p(i)));
        }
        // 2 publishes + 3 × (begin + one page + commit) frames were served.
        assert_eq!(stats.requests, 2 + 3 * 3);
        assert_eq!(stats.open_sessions, 0);
        assert!(elapsed_us > 0, "frame latency must advance virtual time");
    }

    #[test]
    fn admission_cap_answers_busy_and_retries_succeed() {
        let s = mutual_store(3);
        s.publish(p(1), vec![txn(1, 0, "k1")]).unwrap();

        let config = ServiceConfig { workers: 1, max_open_sessions: 1, ..ServiceConfig::default() };
        let clock = VirtualClock::new();
        let mut ex = LocalExecutor::new(clock.clone());
        let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
        let service = StoreService::start(&s, &config, &mut ex, net);
        let done = Rc::new(Cell::new(0u32));
        for i in 1..=3 {
            let client = service.client_for(p(i));
            let done = Rc::clone(&done);
            ex.spawn(async move {
                let info = client.begin_session().await.unwrap().value;
                let candidates = client.drain_candidates(info.session, 8).await.unwrap().value;
                client.commit(info.session, &all_member_ids(&candidates), &[]).await.unwrap();
                done.set(done.get() + 1);
            });
        }
        assert_eq!(ex.run(), 1);
        assert_eq!(done.get(), 3, "every session eventually got an admission slot");
        let stats = service.stats();
        assert!(stats.busy_rejections >= 2, "the cap of 1 must have turned sessions away");
        assert_eq!(stats.open_sessions, 0);
    }

    #[test]
    fn exhausted_admission_retries_surface_a_retryable_error() {
        let s = mutual_store(2);
        let config = ServiceConfig {
            workers: 1,
            max_open_sessions: 1,
            busy_retries: 0,
            ..ServiceConfig::default()
        };
        let clock = VirtualClock::new();
        let mut ex = LocalExecutor::new(clock.clone());
        let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
        let service = StoreService::start(&s, &config, &mut ex, net);

        let holder = service.client_for(p(1));
        let holder_clock = clock.clone();
        ex.spawn(async move {
            let info = holder.begin_session().await.unwrap().value;
            holder_clock.sleep_us(1_000_000).await;
            holder.abort(info.session).await.unwrap();
        });
        let rejected = Rc::new(RefCell::new(None));
        let latecomer = service.client_for(p(2));
        let rejected_slot = Rc::clone(&rejected);
        let late_clock = clock.clone();
        ex.spawn(async move {
            late_clock.sleep_us(10_000).await;
            *rejected_slot.borrow_mut() = Some(latecomer.begin_session().await);
        });
        assert_eq!(ex.run(), 1);
        let error = rejected.borrow_mut().take().expect("latecomer ran").unwrap_err();
        assert!(
            error.to_string().contains("admission control"),
            "expected an admission-control error, got: {error}"
        );
        assert!(service.stats().busy_rejections >= 1);
    }

    #[test]
    fn one_participants_frames_are_served_in_issue_order() {
        let s = mutual_store(1);
        let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let clock = VirtualClock::new();
        let mut ex = LocalExecutor::new(clock.clone());
        let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
        let service = StoreService::start(&s, &config, &mut ex, net);

        // Three concurrent publish tasks for the same participant hit the
        // same worker inbox; their frames enqueue in task order and the
        // worker must serve them FIFO, so epochs come back in issue order.
        let epochs = Rc::new(RefCell::new(vec![Epoch::ZERO; 3]));
        for slot in 0..3u64 {
            let client = service.client_for(p(1));
            let epochs = Rc::clone(&epochs);
            ex.spawn(async move {
                let epoch = client.publish(None, vec![txn(1, slot, "k")]).await.unwrap().value;
                epochs.borrow_mut()[slot as usize] = epoch;
            });
        }
        assert_eq!(ex.run(), 1);
        assert_eq!(*epochs.borrow(), vec![Epoch(1), Epoch(2), Epoch(3)]);
    }

    #[test]
    fn bounded_inboxes_park_producers_and_batches_amortise_latency() {
        // Capacity-1 inboxes: every frame is its own batch, and producers
        // beyond the first park until the worker drains.
        let s = mutual_store(8);
        let tight = ServiceConfig {
            workers: 1,
            inbox_capacity: 1,
            max_batch: 16,
            store_latency_us: 1_000,
            ..ServiceConfig::default()
        };
        let (stats, _) = serve_round(&s, &tight, 8);
        assert_eq!(stats.batches, stats.requests, "capacity 1 leaves nothing to batch");

        // Roomy inboxes under the same load: concurrent sessions pile
        // frames into the inbox while the worker sleeps on the store
        // latency, so batching must kick in.
        let s = mutual_store(8);
        let roomy = ServiceConfig {
            workers: 1,
            inbox_capacity: 64,
            max_batch: 16,
            store_latency_us: 1_000,
            ..ServiceConfig::default()
        };
        let (stats, _) = serve_round(&s, &roomy, 8);
        assert!(
            stats.batches < stats.requests,
            "expected batching: {} batches for {} requests",
            stats.batches,
            stats.requests
        );
    }

    #[test]
    fn observed_services_report_into_the_shared_sink() {
        let obs = Obs::enabled();
        let config =
            ServiceConfig { obs: obs.clone(), obs_shard: Some(3), ..ServiceConfig::default() };
        let (stats, _) = serve_round(&mutual_store(2), &config, 2);
        assert_eq!(obs.metrics.counter("service.requests{shard=3}").get(), stats.requests);
        assert_eq!(obs.metrics.counter("service.batches{shard=3}").get(), stats.batches);
        let frames = obs.metrics.histogram("service.batch_frames{shard=3}").snapshot();
        assert_eq!(frames.count, stats.batches, "one queue-depth sample per worker wake-up");

        let trace = obs.tracer.export();
        assert!(trace.contains("session.begin"), "missing session events: {trace}");
        assert!(trace.contains("session.commit"), "missing commit events: {trace}");
        assert!(trace.contains("publish"), "missing publish events: {trace}");
        assert!(trace.contains("shard=3"), "events must carry the shard label: {trace}");

        // A second service phase reporting into the same sink: the registry
        // accumulates, the per-service stats stay per-service.
        let (stats2, _) = serve_round(&mutual_store(2), &config, 2);
        assert_eq!(stats2.requests, stats.requests, "identical phases serve identical traffic");
        assert_eq!(
            obs.metrics.counter("service.requests{shard=3}").get(),
            stats.requests + stats2.requests
        );
    }

    #[test]
    fn shed_begins_emit_admission_events() {
        let obs = Obs::enabled();
        let config = ServiceConfig {
            workers: 1,
            max_open_sessions: 1,
            obs: obs.clone(),
            obs_shard: Some(0),
            ..ServiceConfig::default()
        };
        let (stats, _) = serve_round(&mutual_store(3), &config, 3);
        assert!(stats.busy_rejections >= 1, "the cap of 1 must shed sessions");
        assert_eq!(
            obs.metrics.counter("service.busy_rejections{shard=0}").get(),
            stats.busy_rejections
        );
        let trace = obs.tracer.export();
        let sheds = trace.lines().filter(|l| l.contains("admission.shed")).count() as u64;
        assert_eq!(sheds, stats.busy_rejections, "one shed event per Busy rejection");
        assert!(trace.contains("admission.backoff"), "retries must trace their backoff: {trace}");
    }

    #[test]
    fn pruning_under_live_traffic_never_breaks_an_open_session() {
        let served = mutual_store(3);
        served.set_retention(RetentionPolicy::ConvergedOnly);
        served.catalog().close_membership().unwrap();
        let reference = mutual_store(3);
        reference.catalog().close_membership().unwrap();

        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Hammer the retention layer from a real thread while the
            // service multiplexes sessions: an open session pins the
            // convergence horizon, so every prune pass must observe it.
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    served.prune_to_horizon().unwrap();
                }
            });
            for round in 0..12u32 {
                let clock = VirtualClock::new();
                let mut ex = LocalExecutor::new(clock.clone());
                let net = Rc::new(SimNetwork::new(vec![StoreService::server_node()]));
                let config = ServiceConfig { workers: 2, ..ServiceConfig::default() };
                let service = StoreService::start(&served, &config, &mut ex, net);
                let publisher = service.client_for(p(1 + round % 3));
                let key = format!("k{round}");
                let batch = vec![txn(1 + round % 3, u64::from(round), &key)];
                ex.spawn(async move {
                    publisher.publish(None, batch).await.unwrap();
                });
                assert_eq!(ex.run(), config.workers);
                for i in 1..=3 {
                    let client = service.client_for(p(i));
                    ex.spawn(async move {
                        let info = client.begin_session().await.unwrap().value;
                        let candidates =
                            client.drain_candidates(info.session, 4).await.unwrap().value;
                        client
                            .commit(info.session, &all_member_ids(&candidates), &[])
                            .await
                            .unwrap();
                    });
                }
                assert_eq!(ex.run(), config.workers);
                service.shutdown();
                assert_eq!(ex.run(), 0);
            }
            stop.store(true, Ordering::SeqCst);
        });

        // The same schedule, unserved and unpruned, decides identically.
        for round in 0..12u32 {
            let key = format!("k{round}");
            reference
                .publish(p(1 + round % 3), vec![txn(1 + round % 3, u64::from(round), &key)])
                .unwrap();
            for i in 1..=3 {
                let (info, candidates) = drained(&reference, p(i), 4).value;
                let accepted = all_member_ids(&candidates);
                reference.commit_reconciliation(info.session, &accepted, &[]).unwrap();
            }
        }
        for i in 1..=3 {
            assert_eq!(served.accepted_set(p(i)), reference.accepted_set(p(i)));
            assert_eq!(served.epoch_cursor(p(i)), reference.epoch_cursor(p(i)));
        }
    }
}
