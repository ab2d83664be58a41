//! Property-based tests over the core invariants of the data model and the
//! reconciliation semantics.

use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{
    flatten, flatten_keyed, Epoch, KeyValue, ParticipantId, Priority, ReconciliationId,
    RelationSchema, Schema, Transaction, Tuple, Update, UpdateOp, Value,
};
use orchestra_obs::Span;
use orchestra_recon::{CandidateTransaction, ReconcileEngine, ReconcileInput, SoftState};
use orchestra_spec::{check_state, Verdict};
use orchestra_storage::{Database, StorageError, Table, TransactionLog};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn p(i: u32) -> ParticipantId {
    ParticipantId(i)
}

fn func(key: u8, value: u8) -> Tuple {
    Tuple::of_text(&["organism", &format!("prot{key}"), &format!("fn{value}")])
}

/// A compact description of a random update against a small key/value
/// domain, expanded into a real [`Update`] against the current state of a
/// scratch instance so that the generated sequence is always applicable.
#[derive(Debug, Clone)]
enum Action {
    Insert {
        key: u8,
        value: u8,
    },
    Revise {
        key: u8,
        value: u8,
    },
    Remove {
        key: u8,
    },
    /// A modification that changes the key. Only ever to a higher key, so no
    /// two tuples swap keys: no sequence of independent updates says a swap.
    Move {
        key: u8,
        to: u8,
    },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..6, 0u8..5).prop_map(|(key, value)| Action::Insert { key, value }),
        (0u8..6, 0u8..5).prop_map(|(key, value)| Action::Revise { key, value }),
        (0u8..6).prop_map(|key| Action::Remove { key }),
    ]
}

/// [`action_strategy`] with key-changing modifications among the actions.
fn moving_action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![action_strategy(), (0u8..6, 0u8..6).prop_map(|(key, to)| Action::Move { key, to }),]
}

/// Expands a list of actions into a sequence of applicable updates (relative
/// to an initially empty instance), skipping actions that do not apply.
fn realise(actions: &[Action], origin: ParticipantId, schema: &Schema) -> Vec<Update> {
    realise_on(&mut Database::new(schema.clone()), actions, origin, &[0, 1, 2, 3, 4, 5])
}

/// Like [`realise`], but relative to (and applied to) the given instance, with
/// every action's key folded onto `keys`.
fn realise_on(
    instance: &mut Database,
    actions: &[Action],
    origin: ParticipantId,
    keys: &[u8],
) -> Vec<Update> {
    let schema = instance.schema().clone();
    let fold = |key: &u8| keys[usize::from(*key) % keys.len()];
    let mut updates = Vec::new();
    for action in actions {
        let update = match action {
            Action::Insert { key, value } => {
                let key = &fold(key);
                let t = func(*key, *value);
                let key_value = schema.relation("Function").unwrap().key_of(&t);
                if instance.value_at("Function", &key_value).is_some() {
                    continue;
                }
                Update::insert("Function", t, origin)
            }
            Action::Revise { key, value } => {
                let key = &fold(key);
                let probe = func(*key, 0);
                let key_value = schema.relation("Function").unwrap().key_of(&probe);
                match instance.value_at("Function", &key_value) {
                    Some(existing) => {
                        let to = func(*key, *value);
                        if existing == to {
                            continue;
                        }
                        Update::modify("Function", existing, to, origin)
                    }
                    None => continue,
                }
            }
            Action::Remove { key } => {
                let key = &fold(key);
                let probe = func(*key, 0);
                let key_value = schema.relation("Function").unwrap().key_of(&probe);
                match instance.value_at("Function", &key_value) {
                    Some(existing) => Update::delete("Function", existing, origin),
                    None => continue,
                }
            }
            Action::Move { key, to } => {
                let rel = schema.relation("Function").unwrap();
                let (key, to) = (fold(key), fold(to));
                let existing = instance.value_at("Function", &rel.key_of(&func(key, 0)));
                let taken = instance.value_at("Function", &rel.key_of(&func(to, 0)));
                match (existing, taken) {
                    (Some(existing), None) if key < to => {
                        let moved = existing.with_value(1, Value::text(format!("prot{to}")));
                        Update::modify("Function", existing, moved, origin)
                    }
                    _ => continue,
                }
            }
        };
        instance.apply_update(&update).expect("realised updates apply");
        updates.push(update);
    }
    updates
}

/// An update over a domain of four keys and three values — or, rarely, a tuple
/// of the wrong type or a relation the schema does not declare — with nothing
/// to say it applies to any state or follows the update before it.
fn raw_update_strategy() -> impl Strategy<Value = Update> {
    let tuple = || {
        (0u8..4, 0u8..3, 0u8..24).prop_map(|(key, value, shape)| match shape {
            0 => func(key, value).with_value(2, Value::int(value.into())),
            1 => func(key, value).with_value(1, Value::int(key.into())),
            _ => func(key, value),
        })
    };
    let relation = || (0u8..12).prop_map(|r| if r == 0 { "Mystery" } else { "Function" });
    prop_oneof![
        (relation(), tuple()).prop_map(|(r, t)| Update::insert(r, t, p(1))),
        (relation(), tuple()).prop_map(|(r, t)| Update::delete(r, t, p(2))),
        (relation(), tuple(), tuple()).prop_map(|(r, from, to)| Update::modify(r, from, to, p(3))),
    ]
}

/// A [`Table`] as it was before its rows were hashed: the same rows in a
/// `BTreeMap`, printed by the derived `Debug` under the same names.
mod reference {
    use orchestra_model::{KeyValue, RelationSchema, Tuple, UpdateOp};
    use std::collections::BTreeMap;

    #[derive(Debug)]
    pub struct Table {
        pub schema: RelationSchema,
        pub rows: BTreeMap<KeyValue, Tuple>,
    }

    impl Table {
        /// Applies `op` by `orchestra_storage::Table`'s rules; returns whether
        /// it applied.
        pub fn apply(&mut self, op: &UpdateOp) -> bool {
            match op {
                UpdateOp::Insert(t) => {
                    let key = self.schema.key_of(t);
                    self.schema.validate_tuple(t).is_ok()
                        && match self.rows.get(&key) {
                            Some(row) => row == t,
                            None => self.rows.insert(key, t.clone()).is_none(),
                        }
                }
                UpdateOp::Delete(t) => {
                    let key = self.schema.key_of(t);
                    self.rows.get(&key) == Some(t) && self.rows.remove(&key).is_some()
                }
                UpdateOp::Modify { from, to } => {
                    let (from_key, to_key) = (self.schema.key_of(from), self.schema.key_of(to));
                    let applies = self.schema.validate_tuple(to).is_ok()
                        && self.rows.get(&from_key) == Some(from)
                        && (from_key == to_key
                            || self.rows.get(&to_key).map_or(true, |other| other == to));
                    if applies {
                        self.rows.remove(&from_key);
                        self.rows.insert(to_key, to.clone());
                    }
                    applies
                }
            }
        }
    }
}

/// Applies `op` to `table`; returns whether it applied.
fn apply_to(table: &mut Table, op: &UpdateOp) -> bool {
    match op {
        UpdateOp::Insert(t) => table.insert(t),
        UpdateOp::Delete(t) => table.delete(t),
        UpdateOp::Modify { from, to } => table.modify(from, to),
    }
    .is_ok()
}

/// The indexes of `ops` in another order: the groups of keys that
/// key-changing modifications tie together go in the order `ranks` gives
/// them, and each group's operations keep theirs. An operation reads and
/// writes its own group's rows only, so each does what it did in the original
/// order, and the rows are the same rows, stored in another order.
fn shuffle_key_groups(rel: &RelationSchema, ops: &[UpdateOp], ranks: &[u64]) -> Vec<usize> {
    fn root(parent: &[usize], mut i: usize) -> usize {
        while parent[i] != i {
            i = parent[i];
        }
        i
    }
    let touched: Vec<Vec<KeyValue>> = ops
        .iter()
        .map(|op| match op {
            UpdateOp::Insert(t) | UpdateOp::Delete(t) => vec![rel.key_of(t)],
            UpdateOp::Modify { from, to } => vec![rel.key_of(from), rel.key_of(to)],
        })
        .collect();
    let mut keys: Vec<&KeyValue> = touched.iter().flatten().collect();
    keys.sort();
    keys.dedup();
    let index = |key: &KeyValue| keys.binary_search(&key).unwrap();
    // Union-find over the keys, joined by every key-changing modification.
    let mut parent: Vec<usize> = (0..keys.len()).collect();
    for op_keys in &touched {
        let a = root(&parent, index(&op_keys[0]));
        let b = root(&parent, index(op_keys.last().unwrap()));
        parent[a] = b;
    }
    let group_of: Vec<usize> =
        touched.iter().map(|op_keys| root(&parent, index(&op_keys[0]))).collect();
    let mut order: Vec<usize> = (0..ops.len()).collect();
    // A stable sort: a group's operations keep their order.
    order.sort_by_key(|&i| ranks[group_of[i] % ranks.len()]);
    order
}

/// The variant of a storage error, with what it says left out.
fn error_kind(e: &StorageError) -> std::mem::Discriminant<StorageError> {
    std::mem::discriminant(e)
}

/// One group of candidates over three keys private to it: a chain of
/// antecedent transactions (any of the three keys), a root over the first two
/// keys and, when `fork` realises to anything, a second root over the third —
/// two candidates sharing every undecided antecedent that cannot conflict
/// with each other. `(realised against the base instance?, antecedents, root,
/// fork)`.
type CandidateGroup = (u8, Vec<Vec<Action>>, Vec<Action>, Vec<Action>);

fn group_strategy() -> impl Strategy<Value = CandidateGroup> {
    let actions = |size| prop::collection::vec(action_strategy(), size);
    (0u8..2, prop::collection::vec(actions(1..5), 0..3), actions(1..5), actions(0..4))
}

/// Expands the groups into candidates, in publication order. Group `g`
/// publishes as participant `10 + g` over keys `3g..3g + 3`, starting from
/// `base` or from an empty instance.
fn grouped_candidates(groups: &[CandidateGroup], base: &Database) -> Vec<CandidateTransaction> {
    let mut candidates = Vec::new();
    for (g, (on_base, antecedents, root, fork)) in groups.iter().enumerate() {
        let (g, origin) = (g as u8, p(10 + g as u32));
        let mut view =
            if *on_base == 1 { base.clone() } else { Database::new(base.schema().clone()) };
        let mut chain = Vec::new();
        for actions in antecedents {
            let updates = realise_on(&mut view, actions, origin, &[3 * g, 3 * g + 1, 3 * g + 2]);
            if !updates.is_empty() {
                chain.push(Transaction::from_parts(origin, chain.len() as u64, updates).unwrap());
            }
        }
        let roots: [(&Vec<Action>, &[u8]); 2] = [(root, &[3 * g, 3 * g + 1]), (fork, &[3 * g + 2])];
        for (local, (actions, keys)) in roots.into_iter().enumerate() {
            let updates = realise_on(&mut view.clone(), actions, origin, keys);
            if !updates.is_empty() {
                let txn = Transaction::from_parts(origin, 100 + local as u64, updates).unwrap();
                let priority = Priority(1 + u32::from(g) % 2);
                candidates.push(CandidateTransaction::new(&txn, priority, chain.clone()));
            }
        }
    }
    candidates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying a flattened sequence produces exactly the same instance as
    /// applying the original sequence step by step.
    #[test]
    fn flatten_preserves_the_net_effect(actions in prop::collection::vec(action_strategy(), 0..40)) {
        let schema = bioinformatics_schema();
        let updates = realise(&actions, p(1), &schema);

        let mut sequential = Database::new(schema.clone());
        sequential.apply_all(&updates).expect("original sequence applies");

        let mut flattened_instance = Database::new(schema.clone());
        let flat = flatten(&schema, &updates);
        flattened_instance.apply_all(&flat).expect("flattened sequence applies");

        prop_assert_eq!(
            sequential.relation_contents("Function"),
            flattened_instance.relation_contents("Function")
        );
    }

    /// The same over a state that holds tuples already and a sequence that
    /// moves tuples from key to key, into keys the state held included: the
    /// net updates apply in the order they come in, by themselves and through
    /// the keyed net apply, and leave what the sequence leaves.
    #[test]
    fn flatten_preserves_the_net_effect_of_key_changing_sequences(
        base in prop::collection::vec(0u8..8, 6),
        actions in prop::collection::vec(moving_action_strategy(), 0..40),
    ) {
        let schema = bioinformatics_schema();
        let mut base_db = Database::new(schema.clone());
        for (key, value) in base.iter().enumerate().filter(|(_, value)| **value < 5) {
            base_db.apply_update(&Update::insert("Function", func(key as u8, *value), p(9))).unwrap();
        }
        let mut sequential = base_db.clone();
        let updates = realise_on(&mut sequential, &actions, p(1), &[0, 1, 2, 3, 4, 5]);

        let flat = flatten(&schema, &updates);
        let mut flattened_instance = base_db.clone();
        prop_assert!(flattened_instance.apply_all(&flat).is_ok(), "{:?} from {:?}", flat, updates);
        prop_assert_eq!(&flattened_instance, &sequential);

        let net = flatten_keyed(&schema, [&Arc::new(updates)]);
        prop_assert!(base_db.apply_net(&net).is_ok());
        prop_assert_eq!(&base_db, &sequential);
    }

    /// Flattening is idempotent: flattening an already flattened sequence
    /// changes nothing.
    #[test]
    fn flatten_is_idempotent(actions in prop::collection::vec(action_strategy(), 0..40)) {
        let schema = bioinformatics_schema();
        let updates = realise(&actions, p(1), &schema);
        let once = flatten(&schema, &updates);
        let twice = flatten(&schema, &once);
        prop_assert_eq!(once, twice);
    }

    /// A flattened sequence never contains two updates writing or reading the
    /// same key (they are mutually independent).
    #[test]
    fn flattened_updates_are_per_key_independent(actions in prop::collection::vec(action_strategy(), 0..40)) {
        let schema = bioinformatics_schema();
        let updates = Arc::new(realise(&actions, p(1), &schema));
        let net = flatten_keyed(&schema, [&updates]);
        let mut seen = std::collections::HashSet::new();
        for (relation, key, _) in net.touched() {
            prop_assert!(seen.insert((relation, key)), "two net updates touch one key");
        }
    }

    /// The keyed flatten is `flatten` plus, for every net update, the keys
    /// `key_of` derives from the tuples it reads and writes — over extensions
    /// of several members, ill-formed chains, key-changing modifications and
    /// relations the schema does not declare. It hands back the member's own
    /// update list exactly when the extension is one member touching pairwise
    /// distinct keys, and those updates are then the member's.
    #[test]
    fn keyed_flatten_is_flatten_with_the_keys_of_its_net_updates(
        members in prop::collection::vec(prop::collection::vec(raw_update_strategy(), 1..6), 1..4)
    ) {
        let schema = bioinformatics_schema();
        let rel = schema.relation("Function").unwrap();
        let members: Vec<Arc<Vec<Update>>> = members.into_iter().map(Arc::new).collect();
        let net = flatten_keyed(&schema, &members);

        let footprint: Vec<&Update> = members.iter().flat_map(|m| m.iter()).collect();
        prop_assert_eq!(net.updates(), flatten(&schema, footprint.iter().copied()));
        let keys_of = |update: &Update| match &update.op {
            _ if update.relation != "Function" => vec![],
            UpdateOp::Insert(t) | UpdateOp::Delete(t) => vec![rel.key_of(t)],
            UpdateOp::Modify { from, to } if rel.key_of(from) == rel.key_of(to) => {
                vec![rel.key_of(from)]
            }
            UpdateOp::Modify { from, to } => vec![rel.key_of(from), rel.key_of(to)],
        };
        for (update, keys) in net.iter() {
            prop_assert_eq!(keys, keys_of(update));
        }

        let mut seen = std::collections::HashSet::new();
        let distinct = members[0]
            .iter()
            .flat_map(|u| keys_of(u).into_iter().map(|key| (u.relation.clone(), key)))
            .all(|touched| seen.insert(touched));
        let shared = std::ptr::eq(net.updates().as_ptr(), members[0].as_ptr());
        prop_assert_eq!(shared, members.len() == 1 && distinct);
        if shared {
            prop_assert_eq!(net.updates(), members[0].as_slice());
        }
    }

    /// A transaction's own flattening — the one it derives once and hands to
    /// every participant reconciling or replaying it alone — is
    /// `flatten_keyed` of that transaction: the same updates in the same
    /// order with the same keys, which the chaining route gives too. It is
    /// there exactly when `flatten_keyed` shares the transaction's list, so
    /// not when a key is touched twice. It is derived once for every holder
    /// of the log's copy, and it is no part of the transaction's value: a
    /// transaction that holds it is equal to, and prints as, one that never
    /// derived it.
    #[test]
    fn a_transactions_own_flattening_is_its_keyed_flattening(
        updates in prop::collection::vec(raw_update_strategy(), 1..6)
    ) {
        let schema = bioinformatics_schema();
        let updates: Vec<Update> = updates.into_iter().map(|u| Update { origin: p(1), ..u }).collect();
        let fresh = Transaction::from_parts(p(1), 0, updates).unwrap();
        let mut log = TransactionLog::new();
        log.publish(Epoch(1), fresh.clone()).unwrap();
        let txn = log.get_arc(fresh.id()).unwrap();
        let own = txn.shared_updates();
        let keyed = flatten_keyed(&schema, [&own]);
        // An empty second member sends the same updates down the chains.
        let chained = flatten_keyed(&schema, [&own, &Arc::new(Vec::new())]);
        prop_assert!(!chained.shares(&own));

        let derived = txn.own_flattening(&schema);
        prop_assert_eq!(derived.is_some(), keyed.shares(&own));
        if let Some(derived) = derived {
            prop_assert!(derived.shares(&own));
            let derived: Vec<_> = derived.iter().collect();
            prop_assert_eq!(&derived, &keyed.iter().collect::<Vec<_>>());
            prop_assert_eq!(&derived, &chained.iter().collect::<Vec<_>>());
        }
        let again = log.get_arc(fresh.id()).unwrap();
        prop_assert_eq!(derived.map(Arc::as_ptr), again.own_flattening(&schema).map(Arc::as_ptr));
        prop_assert_eq!(txn.as_ref(), &fresh);
        prop_assert_eq!(format!("{txn:?}"), format!("{fresh:?}"));
    }

    /// The keyed and unkeyed `Table` operations are one implementation: the
    /// same verdict from `can_*`, the same error, the same rows after every
    /// step of a random sequence with stale, missing,
    /// duplicate and ill-typed cases and key-changing modifications — and
    /// `can_*` says whether the operation then succeeds. So are `Database`'s
    /// `apply_update` and `apply_keyed`, unknown relations included.
    #[test]
    fn keyed_and_unkeyed_operations_agree(
        ops in prop::collection::vec(raw_update_strategy(), 1..40)
    ) {
        let schema = bioinformatics_schema();
        let rel = schema.relation("Function").unwrap();
        let mut unkeyed = Table::new(rel.clone());
        let mut keyed = unkeyed.clone();
        for op in ops.iter().filter(|u| u.relation == "Function").map(|u| &u.op) {
            let (can, can_keyed, done, done_keyed) = match op {
                UpdateOp::Insert(t) => {
                    let key = rel.key_of(t);
                    (
                        unkeyed.can_insert(t),
                        keyed.can_insert_keyed(&key, t),
                        unkeyed.insert(t),
                        keyed.insert_keyed(&key, t),
                    )
                }
                UpdateOp::Delete(t) => {
                    let key = rel.key_of(t);
                    (
                        unkeyed.can_delete(t),
                        keyed.can_delete_keyed(&key, t),
                        unkeyed.delete(t),
                        keyed.delete_keyed(&key, t),
                    )
                }
                UpdateOp::Modify { from, to } => {
                    let (from_key, to_key) = (rel.key_of(from), rel.key_of(to));
                    (
                        unkeyed.can_modify(from, to),
                        keyed.can_modify_keyed(&from_key, from, &to_key, to),
                        unkeyed.modify(from, to),
                        keyed.modify_keyed(&from_key, from, &to_key, to),
                    )
                }
            };
            prop_assert_eq!(can, can_keyed);
            prop_assert_eq!(can, done.is_ok());
            prop_assert_eq!(done.as_ref().err().map(error_kind), done_keyed.as_ref().err().map(error_kind));
            prop_assert_eq!(&unkeyed, &keyed);
        }

        let mut unkeyed = Database::new(schema.clone());
        let mut keyed = unkeyed.clone();
        for op in ops {
            // The keys as the engine gets them: from the flattening.
            let net = flatten_keyed(&schema, [&Arc::new(vec![op])]);
            let (update, keys) = net.iter().next().unwrap();
            prop_assert_eq!(unkeyed.is_compatible(update), keyed.is_compatible_keyed(update, keys));
            let (done, done_keyed) = (unkeyed.apply_update(update), keyed.apply_keyed(update, keys));
            prop_assert_eq!(done.as_ref().err().map(error_kind), done_keyed.as_ref().err().map(error_kind));
            prop_assert_eq!(&unkeyed, &keyed);
        }
    }

    /// `apply_unless_satisfied` is `already_satisfied` and then `apply_keyed`
    /// in one step: after every update of a random sequence — stale,
    /// missing, duplicate and ill-typed tuples, key-changing modifications
    /// and unknown relations among them — the two give the same
    /// `Ok(applied?)` or the same error, and leave the same rows. Over the
    /// flattened chunks of the sequence, `apply_net` gives what the two steps
    /// give with the instance put back on an error, and the lenient replay
    /// loop what they give with every error dropped.
    #[test]
    fn the_one_probe_apply_is_the_satisfied_test_then_the_keyed_apply(
        ops in prop::collection::vec(raw_update_strategy(), 1..40),
        chunk in 1usize..6,
    ) {
        let schema = bioinformatics_schema();
        let two_steps = |db: &mut Database, update: &Update, keys: &[KeyValue]| {
            if db.already_satisfied(update, keys) {
                Ok(false)
            } else {
                db.apply_keyed(update, keys).map(|()| true)
            }
        };
        let mut one = Database::new(schema.clone());
        let mut two = one.clone();
        for op in &ops {
            let net = flatten_keyed(&schema, [&Arc::new(vec![op.clone()])]);
            let (update, keys) = net.iter().next().unwrap();
            let (got, expected) =
                (one.apply_unless_satisfied(update, keys), two_steps(&mut two, update, keys));
            prop_assert_eq!(got.as_ref().map_err(error_kind), expected.as_ref().map_err(error_kind));
            prop_assert_eq!(&one, &two);
        }

        let mut lenient = Database::new(schema.clone());
        let mut lenient_two = lenient.clone();
        for ops in ops.chunks(chunk) {
            let net = flatten_keyed(&schema, [&Arc::new(ops.to_vec())]);
            let before = lenient.clone();
            let (mut atomic, mut expected) = (before.clone(), before.clone());
            let mut applied = Ok(0);
            for (update, keys) in net.iter() {
                match two_steps(&mut expected, update, keys) {
                    Ok(done) => applied = applied.map(|n| n + usize::from(done)),
                    Err(e) => {
                        (applied, expected) = (Err(error_kind(&e)), before.clone());
                        break;
                    }
                }
            }
            prop_assert_eq!(atomic.apply_net(&net).map_err(|e| error_kind(&e)), applied);
            prop_assert_eq!(&atomic, &expected);

            lenient.apply_net_lenient(&net);
            for (update, keys) in net.iter() {
                let _ = two_steps(&mut lenient_two, update, keys);
            }
            prop_assert_eq!(&lenient, &lenient_two);
        }
    }

    /// A hashed table reads out as a `BTreeMap` of the same rows would:
    /// `iter`, `relation_contents` and `Debug` match the reference row for
    /// row and byte for byte, after the operations run in the order generated
    /// and after they run with the groups of keys they touch in another
    /// order — so the same rows went in in another order.
    #[test]
    fn a_table_reads_out_in_key_order_whatever_order_its_rows_went_in(
        ops in prop::collection::vec(raw_update_strategy(), 1..40),
        ranks in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let schema = bioinformatics_schema();
        let rel = schema.relation("Function").unwrap();
        let ops: Vec<UpdateOp> =
            ops.into_iter().filter(|u| u.relation == "Function").map(|u| u.op).collect();
        let mut model = reference::Table { schema: rel.clone(), rows: BTreeMap::new() };
        let verdicts: Vec<bool> = ops.iter().map(|op| model.apply(op)).collect();

        let mut in_order = Table::new(rel.clone());
        for (op, verdict) in ops.iter().zip(&verdicts) {
            prop_assert_eq!(apply_to(&mut in_order, op), *verdict, "{:?}", op);
        }
        let mut db = Database::new(schema.clone());
        for i in shuffle_key_groups(rel, &ops, &ranks) {
            prop_assert_eq!(apply_to(db.table_mut("Function").unwrap(), &ops[i]), verdicts[i]);
        }
        let expected: Vec<_> = model.rows.iter().collect();
        for table in [&in_order, db.table("Function").unwrap()] {
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(format!("{table:?}"), format!("{model:?}"));
        }
        prop_assert_eq!(db.relation_contents("Function"), model.rows.into_iter().collect::<Vec<_>>());
    }

    /// The conflict relation between updates is symmetric.
    #[test]
    fn update_conflicts_are_symmetric(
        a_actions in prop::collection::vec(action_strategy(), 1..10),
        b_actions in prop::collection::vec(action_strategy(), 1..10),
    ) {
        let schema = bioinformatics_schema();
        let a_updates = realise(&a_actions, p(1), &schema);
        let b_updates = realise(&b_actions, p(2), &schema);
        for a in &a_updates {
            for b in &b_updates {
                prop_assert_eq!(a.conflicts_with(b, &schema), b.conflicts_with(a, &schema));
            }
        }
    }

    /// The reconciliation engine is deterministic and exhaustive: every
    /// candidate receives exactly one decision, accepted candidates are
    /// applied, and re-running the same input on a fresh instance produces
    /// the same decisions.
    #[test]
    fn reconciliation_decides_every_candidate_deterministically(
        seeds in prop::collection::vec((1u32..6, prop::collection::vec(action_strategy(), 1..8)), 1..8)
    ) {
        let schema = bioinformatics_schema();
        let engine = ReconcileEngine::new(schema.clone());

        let mut candidates = Vec::new();
        for (idx, (origin, actions)) in seeds.iter().enumerate() {
            let updates = realise(actions, p(*origin), &schema);
            if updates.is_empty() {
                continue;
            }
            let txn = Transaction::from_parts(p(*origin), idx as u64, updates).unwrap();
            candidates.push(CandidateTransaction::new(&txn, Priority(1), vec![]));
        }

        let run = |candidates: Vec<CandidateTransaction>| {
            let mut db = Database::new(schema.clone());
            let mut soft = SoftState::new();
            let outcome = engine.reconcile(
                ReconcileInput {
                    recno: ReconciliationId(1),
                    candidates,
                    ..Default::default()
                },
                &mut db,
                &mut soft,
                &Span::default(),
            );
            (outcome, db)
        };

        let (first, db_first) = run(candidates.clone());
        let (second, db_second) = run(candidates.clone());

        // Exhaustive: every candidate decided exactly once.
        let decided = first.accepted_roots.len() + first.rejected.len() + first.deferred.len();
        prop_assert_eq!(decided, candidates.len());
        // Deterministic.
        prop_assert_eq!(&first.accepted_roots, &second.accepted_roots);
        prop_assert_eq!(&first.rejected, &second.rejected);
        prop_assert_eq!(&first.deferred, &second.deferred);
        prop_assert_eq!(
            db_first.relation_contents("Function"),
            db_second.relation_contents("Function")
        );

        // Accepted candidates' final values are present in the instance.
        for id in &first.accepted_roots {
            let cand = candidates.iter().find(|c| c.id == *id).unwrap();
            for u in cand.flattened(&schema).updates() {
                if let Some(written) = u.written_tuple() {
                    prop_assert!(
                        db_first.contains_tuple_exact(&u.relation, written),
                        "accepted value missing from instance"
                    );
                }
            }
        }
    }

    /// Mutually conflicting equal-priority candidates are never applied; the
    /// instance stays consistent (at most one value per key).
    #[test]
    fn equal_priority_conflicts_never_corrupt_the_instance(
        values in prop::collection::vec(0u8..5, 2..6)
    ) {
        let schema = bioinformatics_schema();
        let engine = ReconcileEngine::new(schema.clone());
        // Every candidate writes the same key with a (possibly) different
        // value.
        let candidates: Vec<CandidateTransaction> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let txn = Transaction::from_parts(
                    p(i as u32 + 1),
                    0,
                    vec![Update::insert("Function", func(0, *v), p(i as u32 + 1))],
                )
                .unwrap();
                CandidateTransaction::new(&txn, Priority(1), vec![])
            })
            .collect();
        let mut db = Database::new(schema.clone());
        let mut soft = SoftState::new();
        let outcome = engine.reconcile(
            ReconcileInput { recno: ReconciliationId(1), candidates, ..Default::default() },
            &mut db,
            &mut soft,
            &Span::default(),
        );
        // The instance holds at most one tuple for the contested key.
        prop_assert!(db.relation_contents("Function").len() <= 1);
        // If any two candidates proposed different values, none of the
        // divergent ones may have been silently applied over another.
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        if distinct.len() > 1 {
            prop_assert!(outcome.deferred.len() >= 2, "divergent writers must be deferred");
        }
    }

    /// The engine's key-indexed `CheckState` agrees with the spec's, the
    /// paper's taken literally (every pair compared, no index), for candidates with
    /// antecedent chains against a non-empty own delta; and the instance ends
    /// up as if the accepted extensions had been applied one after the other,
    /// each without the members an earlier one already applied.
    #[test]
    fn indexed_check_state_agrees_with_the_all_pairs_definition(
        base in prop::collection::vec(0u8..7, 9),
        own_actions in prop::collection::vec(action_strategy(), 0..10),
        own_applied in 0u8..2,
        groups in prop::collection::vec(group_strategy(), 1..4),
    ) {
        let schema = bioinformatics_schema();
        // History everyone has seen: a value under some of the nine keys.
        let mut base_db = Database::new(schema.clone());
        for (key, value) in base.iter().enumerate().filter(|(_, value)| **value < 5) {
            let seen = Update::insert("Function", func(key as u8, *value), p(9));
            base_db.apply_update(&seen).unwrap();
        }
        // The own delta touches keys of every group and of every role. Its
        // first two actions make it non-empty whatever the base holds.
        let mut actions = vec![Action::Remove { key: 0 }, Action::Insert { key: 0, value: 0 }];
        actions.extend(own_actions);
        let own_updates = realise_on(&mut base_db.clone(), &actions, p(1), &[0, 2, 3, 5, 6, 8]);
        prop_assert!(!own_updates.is_empty());
        // The engine's contract does not depend on whether the participant
        // has applied its delta yet; when it has not, the own-delta check is
        // all that stands between a conflicting candidate and the instance.
        let mut instance = base_db.clone();
        if own_applied == 1 {
            instance.apply_all(&own_updates).unwrap();
        }
        let candidates = grouped_candidates(&groups, &base_db);

        let (mut accepted, mut rejected) = (Vec::new(), Vec::new());
        let mut expected = instance.clone();
        let mut applied = std::collections::HashSet::new();
        for cand in &candidates {
            let members: Vec<_> = cand.members.iter().map(|(id, u)| (*id, u.as_slice())).collect();
            let (dirty, decided) = (Default::default(), Default::default());
            let verdict = check_state(&schema, &members, &instance, &own_updates, &dirty, &decided);
            if verdict == Verdict::Reject {
                rejected.push(cand.id);
                continue;
            }
            accepted.push(cand.id);
            let fresh: Vec<Update> = cand
                .members
                .iter()
                .filter(|(id, _)| applied.insert(*id))
                .flat_map(|(_, updates)| updates.iter().cloned())
                .collect();
            for u in flatten(&schema, &fresh) {
                // An error here is an effect that is already present.
                let _ = expected.apply_update(&u);
            }
        }

        let mut db = instance.clone();
        let outcome = ReconcileEngine::new(schema.clone()).reconcile(
            ReconcileInput {
                recno: ReconciliationId(1),
                candidates,
                own_updates,
                ..Default::default()
            },
            &mut db,
            &mut SoftState::new(),
            &Span::default(),
        );
        prop_assert_eq!(outcome.accepted_roots, accepted);
        prop_assert_eq!(outcome.rejected, rejected);
        prop_assert!(outcome.deferred.is_empty(), "the groups' keys are disjoint");
        prop_assert_eq!(db.relation_contents("Function"), expected.relation_contents("Function"));
    }
}
