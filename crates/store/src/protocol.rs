//! The wire protocol of the store service.
//!
//! [`StoreRequest`] / [`StoreResponse`] are the explicit wire enums: one
//! request variant per paged-session step plus one
//! [`Publish`](StoreRequest::Publish), stamped in causal mode and pinned
//! when it replicates a batch to a fabric shard. They are the only frame
//! representation: the service, the clients and the fabric pass the enums
//! through `orchestra-rt` channels and charge the network with each frame's
//! *modelled* size ([`StoreRequest::frame_bytes`]); nothing encodes them to
//! bytes yet. When real frames land (ROADMAP item 6) the byte codec
//! is written fresh, in binary with its version byte, on
//! `orchestra_storage::codec`'s varint primitives.

use crate::api::{SessionId, SessionInfo};
use crate::dht::{REQUEST_BYTES, UPDATE_BYTES};
use orchestra_model::{CausalStamp, Epoch, ParticipantId, Transaction, TransactionId};
use orchestra_recon::CandidateTransaction;

/// A request frame: one paged-session or publish protocol step.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRequest {
    /// Open a reconciliation session (subject to admission control).
    Begin {
        /// The reconciling participant.
        participant: ParticipantId,
    },
    /// Stream the next page of candidates for an open session.
    NextBatch {
        /// The session handle from [`StoreResponse::Began`].
        session: SessionId,
        /// Page size; a short page means the stream is exhausted.
        max_candidates: usize,
    },
    /// Commit a session with its accept/reject decisions.
    Commit {
        /// The session handle.
        session: SessionId,
        /// Accepted member transaction ids.
        accepted: Vec<TransactionId>,
        /// Rejected member transaction ids.
        rejected: Vec<TransactionId>,
    },
    /// Abort a session, leaving durable state untouched.
    Abort {
        /// The session handle.
        session: SessionId,
    },
    /// Publish a batch of transactions as one epoch. Stamped in causal
    /// mode; pinned when it replicates a batch already published at another
    /// fabric shard (the shard extends the relevance of the participants
    /// homed on it, like any publish).
    Publish {
        /// The publishing participant.
        participant: ParticipantId,
        /// The client-allocated stamp (causal mode).
        stamp: Option<CausalStamp>,
        /// The epoch the home shard assigned (a replica); this shard must
        /// derive the same number or fail.
        pinned: Option<Epoch>,
        /// The batch.
        transactions: Vec<Transaction>,
    },
}

impl StoreRequest {
    /// Approximate wire size of the frame, using the same accounting model
    /// as the DHT store (fixed header per message, per-id and per-update
    /// payload costs).
    pub fn frame_bytes(&self) -> u64 {
        match self {
            StoreRequest::Begin { .. } | StoreRequest::Abort { .. } => REQUEST_BYTES,
            StoreRequest::NextBatch { .. } => REQUEST_BYTES,
            StoreRequest::Commit { accepted, rejected, .. } => {
                REQUEST_BYTES + 16 * (accepted.len() + rejected.len()) as u64
            }
            StoreRequest::Publish { transactions, .. } => {
                REQUEST_BYTES
                    + transactions
                        .iter()
                        .map(|t| REQUEST_BYTES + UPDATE_BYTES * t.len() as u64)
                        .sum::<u64>()
            }
        }
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreResponse {
    /// The session is open.
    Began(SessionInfo),
    /// A page of candidates in publication order (short page = stream
    /// exhausted).
    Batch(Vec<CandidateTransaction>),
    /// The session committed.
    Committed,
    /// The session aborted (durable state untouched).
    Aborted,
    /// The publish was assigned (or, pinned, confirmed at) this epoch.
    Published(Epoch),
    /// Admission control rejected a `Begin`: the service is at its open
    /// session cap. Retryable — back off and try again.
    Busy,
    /// The store returned an error; the message carries its rendering.
    Failed(String),
}

impl StoreResponse {
    /// Approximate wire size of the frame (same model as
    /// [`StoreRequest::frame_bytes`]).
    pub fn frame_bytes(&self) -> u64 {
        match self {
            StoreResponse::Batch(candidates) => {
                REQUEST_BYTES
                    + candidates
                        .iter()
                        .map(|c| {
                            REQUEST_BYTES
                                + c.members
                                    .iter()
                                    .map(|(_, updates)| {
                                        REQUEST_BYTES + UPDATE_BYTES * updates.len() as u64
                                    })
                                    .sum::<u64>()
                        })
                        .sum::<u64>()
            }
            StoreResponse::Failed(message) => REQUEST_BYTES + message.len() as u64,
            _ => REQUEST_BYTES,
        }
    }

    /// Short label for protocol-error messages.
    pub fn label(&self) -> &'static str {
        match self {
            StoreResponse::Began(_) => "Began",
            StoreResponse::Batch(_) => "Batch",
            StoreResponse::Committed => "Committed",
            StoreResponse::Aborted => "Aborted",
            StoreResponse::Published(_) => "Published",
            StoreResponse::Busy => "Busy",
            StoreResponse::Failed(_) => "Failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::{AntichainClock, Priority, Tuple, Update};
    use std::sync::Arc;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn txn(i: u32, j: u64) -> Transaction {
        let tuple = Tuple::of_text(&["org", &format!("k{i}-{j}"), "f"]);
        Transaction::from_parts(p(i), j, vec![Update::insert("Function", tuple, p(i))]).unwrap()
    }

    fn candidate() -> CandidateTransaction {
        let t = txn(1, 0);
        CandidateTransaction::from_members(
            t.id(),
            Priority::from(3u32),
            vec![(t.id(), Arc::new(t.updates().to_vec()))],
        )
    }

    #[test]
    fn frame_bytes_follow_the_dht_cost_model() {
        let begin = StoreRequest::Begin { participant: p(1) };
        assert_eq!(begin.frame_bytes(), REQUEST_BYTES);
        // Every publish costs the same: frame header + one transaction
        // header + one update's payload, whether it is stamped, pinned
        // (a fabric replica) or both.
        let stamp = CausalStamp::new(p(1), 1, AntichainClock::default());
        for (stamp, pinned) in [
            (None, None),
            (Some(stamp.clone()), None),
            (None, Some(Epoch(1))),
            (Some(stamp), Some(Epoch(1))),
        ] {
            let publish = StoreRequest::Publish {
                participant: p(1),
                stamp,
                pinned,
                transactions: vec![txn(1, 0)],
            };
            assert_eq!(publish.frame_bytes(), 2 * REQUEST_BYTES + UPDATE_BYTES, "{publish:?}");
        }
        let two = StoreRequest::Publish {
            participant: p(1),
            stamp: None,
            pinned: Some(Epoch(2)),
            transactions: vec![txn(1, 1), txn(1, 2)],
        };
        assert_eq!(two.frame_bytes(), 3 * REQUEST_BYTES + 2 * UPDATE_BYTES);
        let batch = StoreResponse::Batch(vec![candidate()]);
        // Frame header + one candidate header + one member (header + one
        // update's payload).
        assert_eq!(batch.frame_bytes(), 3 * REQUEST_BYTES + UPDATE_BYTES);
    }
}
