//! Network-centric reconciliation over the DHT store.
//!
//! Section 5 of the paper contrasts two ways of organising reconciliation.
//! The *client-centric* algorithm (implemented by [`crate::DhtStore`]'s
//! session-based [`crate::UpdateStore`] retrieval plus the local
//! `ReconcileUpdates` engine) retrieves every relevant transaction and its antecedent chain to
//! the reconciling peer and performs all conflict detection locally. The
//! *network-centric* alternative distributes that work across the network:
//! transaction controllers resolve antecedent chains and compute flattened
//! update extensions where the transactions live, and the owners of the
//! conflicting keys detect conflicts, so the reconciling peer only merges
//! verdicts and applies updates. The trade-off, as the paper's Figure 3
//! summarises, is more messages in exchange for less work at the reconciling
//! peer.
//!
//! The reconciliation *semantics* are identical in both modes — the same
//! transactions are accepted, rejected and deferred — which the integration
//! tests assert; what changes is where the computation happens and the
//! message pattern charged to the simulated network.
//!
//! The key controllers' verdicts are the list the engine's own
//! `FindConflicts` would compute, [`direct_conflicts`]' sorted `(i, j, keys)`
//! over positions into the plan's candidates, so the engine takes them as
//! they are and runs no pair pass of its own.
//!
//! Under the session API the plan carries the open session's [`SessionInfo`]:
//! the caller decides against the plan's candidates and then finishes the
//! session with [`crate::UpdateStore::commit_reconciliation`] (or aborts it),
//! exactly as in the client-centric mode.

use crate::api::{SessionInfo, Timed};
use crate::client::{poll_ready, InProcessClient, SessionClient};
use crate::dht::DhtStore;
use orchestra_model::{ConflictKey, ParticipantId, TransactionId};
use orchestra_obs::Span;
use orchestra_recon::extension::{candidates_by_key, direct_conflicts, FlatExtension};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::Result;
use std::sync::Arc;

/// Approximate size of a control message in bytes.
const CONTROL_BYTES: u64 = 64;
/// Approximate size of a flattened-extension summary in bytes per update.
const SUMMARY_BYTES_PER_UPDATE: u64 = 96;

/// The result of starting a network-centric reconciliation: the open session
/// (to be committed or aborted by the caller), the relevant candidates (with
/// extensions already flattened remotely) and the pairwise direct conflicts
/// detected by the key controllers.
#[derive(Debug, Clone)]
pub struct NetworkCentricPlan {
    /// The open reconciliation session at the store; decisions are recorded
    /// by committing it.
    pub info: SessionInfo,
    /// The candidates, exactly as the client-centric mode would stream them.
    pub candidates: Vec<CandidateTransaction>,
    /// Pairwise direct conflicts between the candidates, as detected by the
    /// key controllers: `(i, j, keys)` for positions `i < j` into
    /// `candidates`, as [`direct_conflicts`] returns them.
    pub conflicts: Vec<(usize, usize, Vec<ConflictKey>)>,
}

impl DhtStore {
    /// Starts a network-centric reconciliation for a participant.
    ///
    /// Compared to the client-centric session, the antecedent chains are
    /// resolved controller-to-controller (the reconciling peer never requests
    /// them), each transaction controller returns only a flattened-extension
    /// summary, and conflict detection happens at the nodes owning the
    /// conflicting keys, which report verdicts directly to the reconciling
    /// peer. The extra distribution traffic is why this mode has the highest
    /// communication cost in the paper's Figure 3.
    pub fn begin_network_centric_reconciliation(
        &self,
        participant: ParticipantId,
    ) -> Result<Timed<NetworkCentricPlan>> {
        // Reuse the client-centric session for the logical work (epoch
        // pinning, trust evaluation, extension computation). The
        // epoch-allocator, epoch-controller and coordinator round trips are
        // identical in both modes.
        let client = InProcessClient::new(self, participant);
        let Timed { value: info, mut timing } = poll_ready(client.begin_session())?;

        // Drain the whole session (the distribution work below needs the
        // full candidate set to group summaries by key).
        let drained = poll_ready(client.drain_candidates(info.session, 64))?;
        timing.accumulate(drained.timing);
        let candidates = drained.value;

        let schema = self.catalog().schema().clone();
        let peer = self.peer_node(participant);

        // Transaction controllers push flattened-extension summaries to the
        // reconciling peer: one reply per candidate, sized by its net
        // updates. Antecedent resolution happens controller-to-controller and
        // is charged as one round trip per undecided antecedent between
        // controllers (not involving the peer).
        let mut flattened: Vec<Arc<FlatExtension>> = Vec::with_capacity(candidates.len());
        for cand in &candidates {
            let net = Arc::clone(cand.flattening(&schema));
            let antecedents: Vec<TransactionId> =
                cand.members.iter().map(|(id, _)| *id).filter(|id| *id != cand.id).collect();
            let summary_bytes =
                CONTROL_BYTES + SUMMARY_BYTES_PER_UPDATE * net.updates().len() as u64;
            let ((), latency) = self.charged(|network| {
                let txn_key = DhtStore::txn_key(cand.id);
                if let Some(controller) = network.ring().owner_of(txn_key) {
                    for ante in &antecedents {
                        let ante_key = DhtStore::txn_key(*ante);
                        network.round_trip(controller, ante_key, CONTROL_BYTES, CONTROL_BYTES);
                    }
                    // Summary pushed to the reconciling peer.
                    network.send_direct(controller, peer, summary_bytes);
                }
            });
            timing.network += latency;
            flattened.push(net);
        }

        // Key controllers detect conflicts: each candidate's summary is
        // forwarded to the controller of every key it touches; each key
        // controller compares the summaries it received and reports verdicts
        // to the reconciling peer.
        candidates_by_key(&flattened, |relation, key, received| {
            // One summary message per candidate touching the key, one verdict
            // reply from the key controller to the reconciling peer.
            let ((), latency) = self.charged(|network| {
                let key_node = orchestra_net::NodeId::hash_str(&format!("key/{relation}/{key}"));
                if let Some(owner) = network.ring().owner_of(key_node) {
                    for _ in received {
                        network.send_to_key(owner, key_node, CONTROL_BYTES);
                    }
                    network.send_direct(owner, peer, CONTROL_BYTES);
                }
            });
            timing.network += latency;
        });
        // The verdicts are the engine's own `FindConflicts`, computed where
        // the keys live.
        let conflicts = direct_conflicts(&candidates, &flattened, &schema, &Span::default());

        Ok(Timed::new(NetworkCentricPlan { info, candidates, conflicts }, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateStore;
    use orchestra_model::schema::bioinformatics_schema;
    use orchestra_model::{ReconciliationId, Transaction, TrustPolicy, Tuple, Update};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn func(org: &str, prot: &str, f: &str) -> Tuple {
        Tuple::of_text(&[org, prot, f])
    }

    fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
        Transaction::from_parts(p(i), j, updates).unwrap()
    }

    /// The conflicts the client-centric engine would find among the plan's
    /// candidates.
    fn client_centric_conflicts(
        plan: &NetworkCentricPlan,
    ) -> Vec<(usize, usize, Vec<ConflictKey>)> {
        let schema = bioinformatics_schema();
        let flats: Vec<Arc<FlatExtension>> =
            plan.candidates.iter().map(|c| Arc::clone(c.flattening(&schema))).collect();
        direct_conflicts(&plan.candidates, &flats, &schema, &Span::default())
    }

    fn store(n: u32) -> DhtStore {
        let s = DhtStore::new(bioinformatics_schema());
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

    #[test]
    fn network_centric_plan_detects_the_same_conflicts() {
        let s = store(4);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        let x3 = txn(3, 0, vec![Update::insert("Function", func("rat", "prot1", "b"), p(3))]);
        let x4 = txn(4, 0, vec![Update::insert("Function", func("mouse", "prot2", "c"), p(4))]);
        s.publish(p(2), vec![x2.clone()]).unwrap();
        s.publish(p(3), vec![x3.clone()]).unwrap();
        s.publish(p(4), vec![x4.clone()]).unwrap();

        let plan = s.begin_network_centric_reconciliation(p(1)).unwrap().value;
        let ids: Vec<TransactionId> = plan.candidates.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![x2.id(), x3.id(), x4.id()]);
        assert_eq!(plan.conflicts, client_centric_conflicts(&plan));
        let pairs: Vec<(usize, usize)> = plan.conflicts.iter().map(|(i, j, _)| (*i, *j)).collect();
        assert_eq!(pairs, vec![(0, 1)], "x2 and x3 conflict, x4 with nobody");
        s.abort_reconciliation(plan.info.session).unwrap();
    }

    #[test]
    fn network_centric_mode_charges_more_messages() {
        // Same published state, two fresh stores: the network-centric plan
        // must charge at least as many messages as the client-centric
        // retrieval (Figure 3's trade-off).
        let build = || {
            let s = store(5);
            for i in 2..=5u32 {
                let t = txn(
                    i,
                    0,
                    vec![Update::insert("Function", func("rat", &format!("prot{i}"), "v"), p(i))],
                );
                s.publish(p(i), vec![t]).unwrap();
            }
            s
        };

        let client_centric = build();
        let before = client_centric.network_stats().messages;
        let (info, _) = crate::client::drained(&client_centric, p(1), 64).value;
        client_centric.abort_reconciliation(info.session).unwrap();
        let client_messages = client_centric.network_stats().messages - before;

        let network_centric = build();
        let before = network_centric.network_stats().messages;
        let plan = network_centric.begin_network_centric_reconciliation(p(1)).unwrap().value;
        network_centric.abort_reconciliation(plan.info.session).unwrap();
        let network_messages = network_centric.network_stats().messages - before;

        assert!(
            network_messages > client_messages,
            "network-centric {network_messages} <= client-centric {client_messages}"
        );
    }

    #[test]
    fn plan_can_be_split_into_engine_inputs_and_committed() {
        let s = store(3);
        let x2 = txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "a"), p(2))]);
        s.publish(p(2), vec![x2.clone()]).unwrap();
        let plan = s.begin_network_centric_reconciliation(p(1)).unwrap().value;
        assert_eq!(plan.candidates.len(), 1);
        assert_eq!(plan.conflicts, client_centric_conflicts(&plan));
        assert!(plan.conflicts.is_empty());
        s.commit_reconciliation(plan.info.session, &[x2.id()], &[]).unwrap();
        assert!(s.accepted_set(p(1)).contains(&x2.id()));
        assert_eq!(s.current_reconciliation(p(1)), ReconciliationId(1));
    }
}
