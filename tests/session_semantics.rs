//! Session-semantics tests for the paged reconciliation API: aborts leave
//! the store byte-identical, interleaved sessions from different
//! participants are isolated, and paged retrieval equals the old single-shot
//! retrieval.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, Transaction, TrustPolicy, Tuple, Update};
use orchestra_recon::CandidateTransaction;
use orchestra_store::{
    poll_ready, CentralStore, InProcessClient, SessionClient, SessionId, UpdateStore,
};

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(org: &str, prot: &str, f: &str) -> Tuple {
    Tuple::of_text(&[org, prot, f])
}

fn txn(i: u32, j: u64, updates: Vec<Update>) -> Transaction {
    Transaction::from_parts(p(i), j, updates).unwrap()
}

/// Opens a session for `who` over the in-process client; returns its handle.
fn begin(store: &CentralStore, who: ParticipantId) -> SessionId {
    poll_ready(InProcessClient::new(store, who).begin_session()).unwrap().value.session
}

/// Drains an open session of `who`'s in pages of `page`.
fn drain(
    store: &CentralStore,
    who: ParticipantId,
    session: SessionId,
    page: usize,
) -> Vec<CandidateTransaction> {
    poll_ready(InProcessClient::new(store, who).drain_candidates(session, page)).unwrap().value
}

/// A store with three mutually trusting participants and a spread of
/// published transactions, including a revision chain.
fn populated_store() -> CentralStore {
    let store = CentralStore::new(bioinformatics_schema());
    for i in 1..=3u32 {
        let mut policy = TrustPolicy::new(p(i));
        for j in 1..=3u32 {
            if i != j {
                policy = policy.trusting(p(j), 1u32);
            }
        }
        store.register_participant(policy);
    }
    store
        .publish(
            p(2),
            vec![
                txn(2, 0, vec![Update::insert("Function", func("rat", "prot1", "v1"), p(2))]),
                txn(
                    2,
                    1,
                    vec![Update::modify(
                        "Function",
                        func("rat", "prot1", "v1"),
                        func("rat", "prot1", "v2"),
                        p(2),
                    )],
                ),
            ],
        )
        .unwrap();
    store
        .publish(
            p(3),
            vec![txn(3, 0, vec![Update::insert("Function", func("mouse", "prot2", "w"), p(3))])],
        )
        .unwrap();
    store
        .publish(
            p(1),
            vec![txn(1, 0, vec![Update::insert("Function", func("dog", "prot3", "x"), p(1))])],
        )
        .unwrap();
    store
}

#[test]
fn abort_leaves_store_state_byte_identical() {
    let store = populated_store();
    // The catalogue's Debug rendering covers every piece of durable state
    // (log, registry, shards: policies, relevance, cursors, decisions) and
    // deliberately excludes soft session state.
    let before = format!("{:?}", store.catalog());

    // Open, page through, and abort — mid-stream, not only when exhausted.
    let session = begin(&store, p(1));
    let first_page = store.next_batch(session, 1).unwrap().value;
    assert!(!first_page.is_empty());
    store.abort_reconciliation(session).unwrap();
    assert_eq!(format!("{:?}", store.catalog()), before, "abort mutated durable state");

    // A session drained to its end and aborted through the client too.
    let client = InProcessClient::new(&store, p(3));
    let session = begin(&store, p(3));
    assert!(!drain(&store, p(3), session, 1).is_empty());
    poll_ready(client.abort(session)).unwrap();
    assert_eq!(format!("{:?}", store.catalog()), before, "client abort mutated durable state");

    // Observable queries agree: no reconciliation recorded, cursor unmoved.
    assert_eq!(store.current_reconciliation(p(1)), Default::default());
    assert_eq!(store.catalog().epoch_cursor(p(1)), orchestra_model::Epoch::ZERO);
    assert_eq!(store.catalog().open_sessions(), 0);

    // After the aborts, a fresh session sees exactly what the first one saw.
    let retry = begin(&store, p(1));
    assert_eq!(store.next_batch(retry, 1).unwrap().value[0].id, first_page[0].id);
    store.abort_reconciliation(retry).unwrap();
}

#[test]
fn interleaved_sessions_do_not_observe_each_others_undecided_candidates() {
    let store = populated_store();

    // Two sessions from different participants, opened back to back.
    let s1 = begin(&store, p(1));
    let s3 = begin(&store, p(3));

    // p1 sees p2's chain and p3's insert; p3 sees p2's chain and p1's insert.
    let c1 = drain(&store, p(1), s1, 1);
    let ids1: Vec<_> = c1.iter().map(|c| c.id).collect();
    assert!(ids1.contains(
        &txn(3, 0, vec![Update::insert("Function", func("mouse", "prot2", "w"), p(3))]).id()
    ));

    // p1 commits decisions mid-flight of p3's session.
    let accepted: Vec<_> = ids1.clone();
    store.commit_reconciliation(s1, &accepted, &[]).unwrap();

    // p3's already-open session streams its own snapshot: p1's concurrent
    // decisions are p1's alone and must not leak into (or filter) p3's
    // candidate stream.
    let c3 = drain(&store, p(3), s3, 1);
    let ids3: Vec<_> = c3.iter().map(|c| c.id).collect();
    assert!(ids3.contains(
        &txn(1, 0, vec![Update::insert("Function", func("dog", "prot3", "x"), p(1))]).id()
    ));
    assert!(
        ids3.iter().all(|id| id.participant != p(3)),
        "a participant never sees its own transactions"
    );
    store.commit_reconciliation(s3, &ids3, &[]).unwrap();

    // Decision records stayed per-participant.
    for id in &ids1 {
        assert!(store.accepted_set(p(1)).contains(id));
    }
    for id in &ids3 {
        assert!(store.accepted_set(p(3)).contains(id));
    }
    // p1's decisions never leaked into p3's record: everything p3's record
    // holds is either its own publication or one of its own session commits.
    for id in store.accepted_set(p(3)).iter() {
        assert!(
            id.participant == p(3) || ids3.contains(id),
            "foreign decision {id:?} leaked into p3's record"
        );
    }
}

#[test]
fn paged_retrieval_equals_single_shot_retrieval() {
    // Two identically populated stores: one participant drains everything in
    // one huge page, the other pages with max_candidates = 1. Candidate
    // streams must be identical, element for element, extensions included.
    let store = populated_store();
    let paged = store.clone();

    let single = begin(&store, p(1));
    let all = drain(&store, p(1), single, 1_000);
    store.abort_reconciliation(single).unwrap();

    let paged_session = begin(&paged, p(1));
    let mut pages = Vec::new();
    loop {
        let page = paged.next_batch(paged_session, 1).unwrap().value;
        if page.is_empty() {
            break;
        }
        assert!(page.len() <= 1, "page exceeded max_candidates");
        pages.extend(page);
    }
    paged.abort_reconciliation(paged_session).unwrap();

    assert_eq!(all.len(), pages.len());
    for (a, b) in all.iter().zip(pages.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.priority, b.priority);
        assert_eq!(
            a.members.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            b.members.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            "extension members diverged for {:?}",
            a.id
        );
    }
}

#[test]
fn sessions_are_pinned_to_their_open_epoch() {
    // A publish that lands *after* a session opened must not leak into the
    // session's stream; it becomes visible to the next session.
    let store = populated_store();
    let client = InProcessClient::new(&store, p(1));
    let session = poll_ready(client.begin_session()).unwrap().value;
    let pinned_epoch = session.epoch;

    store
        .publish(
            p(2),
            vec![txn(2, 2, vec![Update::insert("Function", func("cat", "prot9", "y"), p(2))])],
        )
        .unwrap();

    let ids: Vec<_> = drain(&store, p(1), session.session, 2).iter().map(|c| c.id).collect();
    assert!(
        !ids.contains(&orchestra_model::TransactionId::new(p(2), 2)),
        "a post-open publish leaked into the session"
    );
    poll_ready(client.commit(session.session, &ids, &[])).unwrap();

    let next = poll_ready(client.begin_session()).unwrap().value;
    assert!(next.epoch > pinned_epoch);
    let next_ids: Vec<_> = drain(&store, p(1), next.session, 2).iter().map(|c| c.id).collect();
    assert_eq!(next_ids, vec![orchestra_model::TransactionId::new(p(2), 2)]);
    poll_ready(client.commit(next.session, &next_ids, &[])).unwrap();
}
