//! The one seam between a participant and its update store.
//!
//! Everything that publishes or reconciles goes through [`SessionClient`],
//! however the store is reached. It has three implementors:
//!
//! * [`InProcessClient`] (here): ready futures over a `&S: UpdateStore`.
//!   Blocking callers run the shared async session code over it with
//!   [`poll_ready`], which is all the in-process path is.
//! * [`ServiceClient`](crate::ServiceClient): framed requests to one
//!   [`StoreService`](crate::StoreService) on the virtual clock.
//! * [`FabricClient`](crate::FabricClient): one [`ShardClient`] per shard.
//!   A session is the participant's home shard's session, forwarded as is;
//!   a publish is a primary publish at the home shard plus a pinned replica
//!   at every other — over service clients in the framed fabric driver, over
//!   in-process clients inside [`StoreFabric`](crate::StoreFabric)'s own
//!   [`UpdateStore::publish`].

use crate::api::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use orchestra_model::{CausalStamp, Epoch, ParticipantId, Transaction, TransactionId};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{Result, StorageError};
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// The session-protocol surface a participant publishes and reconciles
/// through — the one seam between a participant and however its update
/// store is reached: in-process ([`InProcessClient`]), one framed service
/// ([`ServiceClient`](crate::ServiceClient)) or a whole fabric
/// ([`FabricClient`](crate::FabricClient)). Code written against this trait
/// runs unchanged on all three.
///
/// Every call returns its own store cost ([`Timed`] / [`StoreTiming`]):
/// store-reported in-process, the virtual-clock time the frames took (which
/// under a concurrent driver includes queueing at the service) when framed.
#[allow(async_fn_in_trait)]
pub trait SessionClient {
    /// The participant this client acts for.
    fn participant(&self) -> ParticipantId;

    /// Whether the store is in causal mode, i.e. whether a publish must
    /// carry a client-allocated [`CausalStamp`].
    fn causal_mode(&self) -> bool;

    /// Opens a reconciliation session (fabric: at the participant's home
    /// shard).
    async fn begin_session(&self) -> Result<Timed<SessionInfo>>;

    /// Drains the session's candidate stream in pages of `batch_size`,
    /// returning all candidates in publication (epoch) order.
    async fn drain_candidates(
        &self,
        session: SessionId,
        batch_size: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>>;

    /// Commits the session with the full decision lists. A failed commit
    /// leaves the session open; the caller aborts it.
    async fn commit(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming>;

    /// Aborts the session. Aborting an unknown or already-closed session is
    /// a no-op.
    async fn abort(&self, session: SessionId) -> Result<()>;

    /// Publishes a batch — under `stamp` when the store is in causal mode —
    /// returning the epoch it was assigned.
    async fn publish(
        &self,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>>;
}

/// What a [`FabricClient`](crate::FabricClient) additionally needs of the
/// client onto **one shard**: the pinned replica publish. A fabric client is
/// not itself a shard, hence a sub-trait.
#[allow(async_fn_in_trait)]
pub trait ShardClient: SessionClient {
    /// Replicates a batch already published at another shard, pinning it to
    /// the epoch the home shard assigned (stamped in causal mode).
    async fn replicate(
        &self,
        stamp: Option<CausalStamp>,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>>;
}

/// The in-process client: every call is a ready future over a direct call
/// on `&S`, reporting the store's own cost. It takes no configuration.
/// Blocking callers run the shared async session code over it with
/// [`poll_ready`]; [`StoreFabric`](crate::StoreFabric) runs
/// [`FabricClient`](crate::FabricClient)'s publish fan-out over one per shard.
#[derive(Debug)]
pub struct InProcessClient<'a, S: UpdateStore + ?Sized> {
    store: &'a S,
    participant: ParticipantId,
}

impl<'a, S: UpdateStore + ?Sized> InProcessClient<'a, S> {
    /// A client acting for `participant` directly against `store`.
    pub fn new(store: &'a S, participant: ParticipantId) -> Self {
        InProcessClient { store, participant }
    }
}

impl<S: UpdateStore + ?Sized> SessionClient for InProcessClient<'_, S> {
    fn participant(&self) -> ParticipantId {
        self.participant
    }

    fn causal_mode(&self) -> bool {
        self.store.causal_mode()
    }

    async fn begin_session(&self) -> Result<Timed<SessionInfo>> {
        self.store.begin_reconciliation(self.participant)
    }

    /// Pages the session to its end, stopping at the first short page.
    async fn drain_candidates(
        &self,
        session: SessionId,
        batch_size: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let batch_size = batch_size.max(1);
        let mut drained = Timed::new(Vec::new(), StoreTiming::default());
        loop {
            let page = self.store.next_batch(session, batch_size)?;
            drained.timing.accumulate(page.timing);
            let exhausted = page.value.len() < batch_size;
            drained.value.extend(page.value);
            if exhausted {
                return Ok(drained);
            }
        }
    }

    async fn commit(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.store.commit_reconciliation(session, accepted, rejected)
    }

    async fn abort(&self, session: SessionId) -> Result<()> {
        self.store.abort_reconciliation(session)
    }

    async fn publish(
        &self,
        stamp: Option<CausalStamp>,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        publish_on(self.store, self.participant, stamp, None, transactions)
    }
}

impl<S: UpdateStore + ?Sized> ShardClient for InProcessClient<'_, S> {
    async fn replicate(
        &self,
        stamp: Option<CausalStamp>,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        publish_on(self.store, self.participant, stamp, Some(epoch), transactions)
    }
}

/// The one publish, mapped onto the trait's four publish methods: `stamp`
/// picks the causal form, `pinned` the replica form. A stamped publish is
/// the stamp's publisher's, so `participant` is not consulted then.
pub(crate) fn publish_on<S: UpdateStore + ?Sized>(
    store: &S,
    participant: ParticipantId,
    stamp: Option<CausalStamp>,
    pinned: Option<Epoch>,
    transactions: Vec<Transaction>,
) -> Result<Timed<Epoch>> {
    match (stamp, pinned) {
        (None, None) => store.publish(participant, transactions),
        (Some(stamp), None) => store.publish_stamped(stamp, transactions),
        (None, Some(epoch)) => store.publish_replica(participant, epoch, transactions),
        (Some(stamp), Some(epoch)) => store.publish_replica_stamped(stamp, epoch, transactions),
    }
}

/// Polls `future` exactly once and returns its output: the blocking wrapper
/// around the async session code. Over an [`InProcessClient`] every await is
/// ready, so one poll completes it. A future that is still pending — a
/// framed client, which has to wait for its service — is refused with a
/// typed [`StorageError::Session`] rather than a hang: framed clients are
/// driven from an executor task.
pub fn poll_ready<T>(future: impl Future<Output = Result<T>>) -> Result<T> {
    struct NoWake;
    impl Wake for NoWake {
        fn wake(self: Arc<Self>) {}
    }
    let waker = Waker::from(Arc::new(NoWake));
    match std::pin::pin!(future).poll(&mut Context::from_waker(&waker)) {
        Poll::Ready(output) => output,
        Poll::Pending => Err(StorageError::Session(
            "a blocking store call would have to wait: only in-process clients can be driven \
             without an executor"
                .to_string(),
        )),
    }
}

/// Opens a session for `participant` over an [`InProcessClient`] and drains
/// it in pages of `page`: the session and its candidates, at the cost of the
/// begin and every page. The session stays open for the test to commit or
/// abort.
#[cfg(test)]
pub(crate) fn drained<S: UpdateStore + ?Sized>(
    store: &S,
    participant: ParticipantId,
    page: usize,
) -> Timed<(SessionInfo, Vec<CandidateTransaction>)> {
    let client = InProcessClient::new(store, participant);
    let began = poll_ready(client.begin_session()).expect("session opens");
    let drained =
        poll_ready(client.drain_candidates(began.value.session, page)).expect("session drains");
    let mut timing = began.timing;
    timing.accumulate(drained.timing);
    Timed::new((began.value, drained.value), timing)
}
