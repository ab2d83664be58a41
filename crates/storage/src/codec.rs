//! Binary record codec for the write-ahead log and snapshots.
//!
//! Every [`WalRecord`] and [`StoreSnapshot`] on disk is written by this
//! module, and nothing else in the workspace serialises anything: there is
//! one durable encoding. Inspection goes through tools that read it
//! (`wal_dump`), not through a second, greppable format.
//!
//! # Payload format
//!
//! A WAL-record payload is
//!
//! ```text
//! ┌──────┬─────┬─────────────────────────┐
//! │ 0xC1 │ tag │ varint/interned fields  │
//! └──────┴─────┴─────────────────────────┘
//! ```
//!
//! and a snapshot payload starts with `0xC5` instead. [`decode_record`] and
//! [`decode_snapshot`] reject a payload whose first byte is not their magic
//! with a typed [`StorageError::Persistence`].
//!
//! Integers are LEB128 varints (signed ones zigzag-encoded), floats are raw
//! IEEE-754 bits, strings are length-prefixed UTF-8. Relation names — by far
//! the most repeated strings in a publish-heavy log — are interned *per
//! payload*: the first occurrence writes marker `0` plus the name and appends
//! it to the payload's table, later occurrences write `table index + 1`.
//! Hash-backed maps are written in sorted key order so the encoding of equal
//! states is byte-identical regardless of insertion history.
//!
//! Payloads travel inside the CRC-32 [`crate::wal::FrameLog`] frame format,
//! which is what detects torn tails and bit flips.

use crate::decisions::{Decision, ParticipantRecord};
use crate::epoch::{CausalNode, EpochRecord, EpochRegistry, PublicationStatus};
use crate::error::{Result, StorageError};
use crate::log::{LogEntry, TransactionLog};
use crate::retention::RetentionPolicy;
use crate::snapshot::{ParticipantSnapshot, StoreSnapshot};
use crate::wal::WalRecord;
use orchestra_model::schema::{ColumnDef, RelationSchema};
use orchestra_model::{
    AcceptanceRule, AntichainClock, CausalStamp, Constraint, Epoch, ParticipantId, Predicate,
    Priority, ReconciliationId, RelName, Schema, StampId, Transaction, TransactionId, TrustPolicy,
    Tuple, Update, UpdateKind, UpdateOp, Value, ValueType,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// First byte of a WAL-record payload.
pub(crate) const WAL_MAGIC: u8 = 0xC1;
/// First byte of a snapshot payload.
pub(crate) const SNAPSHOT_MAGIC: u8 = 0xC5;

/// The encoding of WAL records and snapshots. There is exactly one; the enum
/// and [`encode_record`]'s second argument remain only because
/// `examples/benchmark/src/probes.rs` names them and only a `[benchmark]` PR
/// may edit that package — the next one drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Compact binary payloads: varint integers, per-payload interned
    /// relation names.
    Binary,
}

fn bad_magic(what: &str, expected: u8, payload: &[u8]) -> StorageError {
    StorageError::Persistence(format!(
        "{what} payload starts with {:02x?}, not the magic byte {expected:#04x}",
        payload.first()
    ))
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub(crate) fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| StorageError::Persistence("binary payload truncated".to_string()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StorageError::Persistence("varint overflows u64".to_string()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Binary payload writer: a byte buffer plus the payload's relation-name
/// intern table.
struct Enc {
    buf: Vec<u8>,
    rels: Vec<RelName>,
}

impl Enc {
    fn new(magic: u8) -> Self {
        let mut buf = Vec::with_capacity(128);
        buf.push(magic);
        Enc { buf, rels: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    fn i64(&mut self, v: i64) {
        write_varint(&mut self.buf, zigzag(v));
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Interned relation name: `0` + string on first use, `index + 1` after.
    fn rel(&mut self, name: &RelName) {
        // The table stays small (a handful of relations per schema), so a
        // linear probe beats a hash map on both time and code.
        if let Some(idx) = self.rels.iter().position(|r| r == name) {
            self.u64(idx as u64 + 1);
        } else {
            self.u64(0);
            self.str(name.as_str());
            self.rels.push(name.clone());
        }
    }
}

/// Binary payload reader, mirroring [`Enc`].
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    rels: Vec<RelName>,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0, rels: Vec::new() }
    }

    fn u8(&mut self) -> Result<u8> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| StorageError::Persistence("binary payload truncated".to_string()))?;
        self.pos += 1;
        Ok(byte)
    }

    fn u64(&mut self) -> Result<u64> {
        read_varint(self.bytes, &mut self.pos)
    }

    fn u32(&mut self) -> Result<u32> {
        u32::try_from(self.u64()?)
            .map_err(|_| StorageError::Persistence("u32 field out of range".to_string()))
    }

    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        // Bound collection lengths by the remaining payload: every element
        // needs at least one byte, so anything larger is corruption, not a
        // huge allocation.
        let len = usize::try_from(v)
            .map_err(|_| StorageError::Persistence("length field out of range".to_string()))?;
        if len > self.bytes.len().saturating_sub(self.pos) {
            return Err(StorageError::Persistence(format!(
                "length {len} exceeds remaining payload"
            )));
        }
        Ok(len)
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(unzigzag(self.u64()?))
    }

    fn f64(&mut self) -> Result<f64> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| StorageError::Persistence("binary payload truncated".to_string()))?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(slice.try_into().expect("8 bytes"))))
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Persistence(format!("invalid bool byte {other}"))),
        }
    }

    fn str(&mut self) -> Result<String> {
        let len = self.usize()?;
        let slice = self
            .bytes
            .get(self.pos..self.pos + len)
            .ok_or_else(|| StorageError::Persistence("binary payload truncated".to_string()))?;
        self.pos += len;
        String::from_utf8(slice.to_vec())
            .map_err(|e| StorageError::Persistence(format!("string is not UTF-8: {e}")))
    }

    fn rel(&mut self) -> Result<RelName> {
        match self.u64()? {
            0 => {
                let name = RelName::new(&self.str()?);
                self.rels.push(name.clone());
                Ok(name)
            }
            idx => {
                self.rels.get(idx as usize - 1).cloned().ok_or_else(|| {
                    StorageError::Persistence(format!("relation index {idx} unknown"))
                })
            }
        }
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(StorageError::Persistence(format!(
                "{} trailing byte(s) after binary payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Model types
// ---------------------------------------------------------------------------

fn enc_participant(e: &mut Enc, p: ParticipantId) {
    e.u64(u64::from(p.as_u32()));
}

fn dec_participant(d: &mut Dec<'_>) -> Result<ParticipantId> {
    Ok(ParticipantId(d.u32()?))
}

fn enc_txn_id(e: &mut Enc, id: TransactionId) {
    enc_participant(e, id.participant);
    e.u64(id.local);
}

fn dec_txn_id(d: &mut Dec<'_>) -> Result<TransactionId> {
    let participant = dec_participant(d)?;
    let local = d.u64()?;
    Ok(TransactionId::new(participant, local))
}

fn enc_txn_ids(e: &mut Enc, ids: &[TransactionId]) {
    e.u64(ids.len() as u64);
    for id in ids {
        enc_txn_id(e, *id);
    }
}

fn dec_txn_ids(d: &mut Dec<'_>) -> Result<Vec<TransactionId>> {
    let len = d.usize()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(dec_txn_id(d)?);
    }
    Ok(out)
}

fn enc_value(e: &mut Enc, value: &Value) {
    match value {
        Value::Null => e.u8(0),
        Value::Int(v) => {
            e.u8(1);
            e.i64(*v);
        }
        Value::Float(v) => {
            e.u8(2);
            e.f64(*v);
        }
        Value::Text(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Bool(b) => {
            e.u8(4);
            e.bool(*b);
        }
    }
}

fn dec_value(d: &mut Dec<'_>) -> Result<Value> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Int(d.i64()?),
        2 => Value::Float(d.f64()?),
        3 => Value::Text(d.str()?.into()),
        4 => Value::Bool(d.bool()?),
        other => return Err(StorageError::Persistence(format!("invalid value tag {other}"))),
    })
}

fn enc_tuple(e: &mut Enc, tuple: &Tuple) {
    e.u64(tuple.arity() as u64);
    for value in tuple.values() {
        enc_value(e, value);
    }
}

fn dec_tuple(d: &mut Dec<'_>) -> Result<Tuple> {
    let arity = d.usize()?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(dec_value(d)?);
    }
    Ok(Tuple::new(values))
}

fn enc_update(e: &mut Enc, update: &Update) {
    e.rel(&update.relation);
    match &update.op {
        UpdateOp::Insert(tuple) => {
            e.u8(0);
            enc_tuple(e, tuple);
        }
        UpdateOp::Delete(tuple) => {
            e.u8(1);
            enc_tuple(e, tuple);
        }
        UpdateOp::Modify { from, to } => {
            e.u8(2);
            enc_tuple(e, from);
            enc_tuple(e, to);
        }
    }
    enc_participant(e, update.origin);
}

fn dec_update(d: &mut Dec<'_>) -> Result<Update> {
    let relation = d.rel()?;
    let op = match d.u8()? {
        0 => UpdateOp::Insert(dec_tuple(d)?),
        1 => UpdateOp::Delete(dec_tuple(d)?),
        2 => {
            let from = dec_tuple(d)?;
            let to = dec_tuple(d)?;
            UpdateOp::Modify { from, to }
        }
        other => return Err(StorageError::Persistence(format!("invalid update tag {other}"))),
    };
    let origin = dec_participant(d)?;
    Ok(Update { relation, op, origin })
}

fn enc_transaction(e: &mut Enc, txn: &Transaction) {
    enc_txn_id(e, txn.id());
    e.u64(txn.updates().len() as u64);
    for update in txn.updates() {
        enc_update(e, update);
    }
}

fn dec_transaction(d: &mut Dec<'_>) -> Result<Transaction> {
    let id = dec_txn_id(d)?;
    let len = d.usize()?;
    let mut updates = Vec::with_capacity(len);
    for _ in 0..len {
        updates.push(dec_update(d)?);
    }
    Transaction::new(id, updates)
        .map_err(|e| StorageError::Persistence(format!("decoded transaction invalid: {e}")))
}

fn enc_stamp_id(e: &mut Enc, id: StampId) {
    enc_participant(e, id.publisher);
    e.u64(id.seq);
}

fn dec_stamp_id(d: &mut Dec<'_>) -> Result<StampId> {
    let publisher = dec_participant(d)?;
    let seq = d.u64()?;
    Ok(StampId::new(publisher, seq))
}

fn enc_clock(e: &mut Enc, clock: &AntichainClock) {
    e.u64(clock.len() as u64);
    for &id in clock.members() {
        enc_stamp_id(e, id);
    }
}

fn dec_clock(d: &mut Dec<'_>) -> Result<AntichainClock> {
    let len = d.usize()?;
    let mut clock = AntichainClock::new();
    for _ in 0..len {
        clock.insert(dec_stamp_id(d)?);
    }
    Ok(clock)
}

fn enc_causal_stamp(e: &mut Enc, stamp: &CausalStamp) {
    enc_participant(e, stamp.publisher);
    e.u64(stamp.seq);
    enc_clock(e, &stamp.parents);
}

fn dec_causal_stamp(d: &mut Dec<'_>) -> Result<CausalStamp> {
    let publisher = dec_participant(d)?;
    let seq = d.u64()?;
    let parents = dec_clock(d)?;
    Ok(CausalStamp::new(publisher, seq, parents))
}

fn enc_predicate(e: &mut Enc, predicate: &Predicate) {
    match predicate {
        Predicate::True => e.u8(0),
        Predicate::False => e.u8(1),
        Predicate::FromParticipant(p) => {
            e.u8(2);
            enc_participant(e, *p);
        }
        Predicate::FromAnyOf(ps) => {
            e.u8(3);
            e.u64(ps.len() as u64);
            for p in ps {
                enc_participant(e, *p);
            }
        }
        Predicate::OverRelation(name) => {
            e.u8(4);
            e.str(name);
        }
        Predicate::OfKind(kind) => {
            e.u8(5);
            e.u8(match kind {
                UpdateKind::Insert => 0,
                UpdateKind::Delete => 1,
                UpdateKind::Modify => 2,
            });
        }
        Predicate::WritesValue { column, equals } => {
            e.u8(6);
            e.str(column);
            enc_value(e, equals);
        }
        Predicate::And(ps) => {
            e.u8(7);
            e.u64(ps.len() as u64);
            for p in ps {
                enc_predicate(e, p);
            }
        }
        Predicate::Or(ps) => {
            e.u8(8);
            e.u64(ps.len() as u64);
            for p in ps {
                enc_predicate(e, p);
            }
        }
        Predicate::Not(p) => {
            e.u8(9);
            enc_predicate(e, p);
        }
    }
}

fn dec_predicate(d: &mut Dec<'_>) -> Result<Predicate> {
    Ok(match d.u8()? {
        0 => Predicate::True,
        1 => Predicate::False,
        2 => Predicate::FromParticipant(dec_participant(d)?),
        3 => {
            let len = d.usize()?;
            let mut ps = Vec::with_capacity(len);
            for _ in 0..len {
                ps.push(dec_participant(d)?);
            }
            Predicate::FromAnyOf(ps)
        }
        4 => Predicate::OverRelation(d.str()?),
        5 => Predicate::OfKind(match d.u8()? {
            0 => UpdateKind::Insert,
            1 => UpdateKind::Delete,
            2 => UpdateKind::Modify,
            other => return Err(StorageError::Persistence(format!("invalid update kind {other}"))),
        }),
        6 => {
            let column = d.str()?;
            let equals = dec_value(d)?;
            Predicate::WritesValue { column, equals }
        }
        7 => {
            let len = d.usize()?;
            let mut ps = Vec::with_capacity(len);
            for _ in 0..len {
                ps.push(dec_predicate(d)?);
            }
            Predicate::And(ps)
        }
        8 => {
            let len = d.usize()?;
            let mut ps = Vec::with_capacity(len);
            for _ in 0..len {
                ps.push(dec_predicate(d)?);
            }
            Predicate::Or(ps)
        }
        9 => Predicate::Not(Box::new(dec_predicate(d)?)),
        other => return Err(StorageError::Persistence(format!("invalid predicate tag {other}"))),
    })
}

fn enc_policy(e: &mut Enc, policy: &TrustPolicy) {
    enc_participant(e, policy.owner());
    e.u64(policy.rules().len() as u64);
    for rule in policy.rules() {
        enc_predicate(e, &rule.predicate);
        e.u64(u64::from(rule.priority.0));
    }
}

fn dec_policy(d: &mut Dec<'_>) -> Result<TrustPolicy> {
    let owner = dec_participant(d)?;
    let mut policy = TrustPolicy::new(owner);
    let rules = d.usize()?;
    for _ in 0..rules {
        let predicate = dec_predicate(d)?;
        let priority = Priority(d.u32()?);
        policy.add_rule(AcceptanceRule::new(predicate, priority));
    }
    Ok(policy)
}

fn enc_schema(e: &mut Enc, schema: &Schema) {
    let relations: Vec<&RelationSchema> = schema.relations().collect();
    e.u64(relations.len() as u64);
    for rel in relations {
        e.str(rel.name());
        e.u64(rel.columns().len() as u64);
        for column in rel.columns() {
            e.str(&column.name);
            e.u8(match column.ty {
                ValueType::Int => 0,
                ValueType::Float => 1,
                ValueType::Text => 2,
                ValueType::Bool => 3,
            });
            e.bool(column.nullable);
        }
        e.u64(rel.key_indexes().len() as u64);
        for &idx in rel.key_indexes() {
            e.u64(idx as u64);
        }
    }
    e.u64(schema.constraints().len() as u64);
    for constraint in schema.constraints() {
        match constraint {
            Constraint::ForeignKey { relation, columns, ref_relation, ref_columns } => {
                e.u8(0);
                e.str(relation);
                enc_strs(e, columns);
                e.str(ref_relation);
                enc_strs(e, ref_columns);
            }
            Constraint::Unique { relation, columns } => {
                e.u8(1);
                e.str(relation);
                enc_strs(e, columns);
            }
        }
    }
}

fn enc_strs(e: &mut Enc, strs: &[String]) {
    e.u64(strs.len() as u64);
    for s in strs {
        e.str(s);
    }
}

fn dec_strs(d: &mut Dec<'_>) -> Result<Vec<String>> {
    let len = d.usize()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(d.str()?);
    }
    Ok(out)
}

fn dec_schema(d: &mut Dec<'_>) -> Result<Schema> {
    let mut schema = Schema::new();
    let relations = d.usize()?;
    for _ in 0..relations {
        let name = d.str()?;
        let columns_len = d.usize()?;
        let mut columns = Vec::with_capacity(columns_len);
        for _ in 0..columns_len {
            let col_name = d.str()?;
            let ty = match d.u8()? {
                0 => ValueType::Int,
                1 => ValueType::Float,
                2 => ValueType::Text,
                3 => ValueType::Bool,
                other => {
                    return Err(StorageError::Persistence(format!("invalid value type {other}")))
                }
            };
            let nullable = d.bool()?;
            columns.push(if nullable {
                ColumnDef::nullable(col_name, ty)
            } else {
                ColumnDef::new(col_name, ty)
            });
        }
        let key_len = d.usize()?;
        let mut key_indexes = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            // A key *index* is a value, not a length — don't bound it by the
            // remaining payload.
            let idx = usize::try_from(d.u64()?).map_err(|_| {
                StorageError::Persistence("key column index out of range".to_string())
            })?;
            key_indexes.push(idx);
        }
        let key_names: Vec<&str> = key_indexes
            .iter()
            .map(|&idx| {
                columns.get(idx).map(|c: &ColumnDef| c.name.as_str()).ok_or_else(|| {
                    StorageError::Persistence(format!("key column index {idx} out of range"))
                })
            })
            .collect::<Result<_>>()?;
        let relation = RelationSchema::new(name, columns.clone(), &key_names)
            .map_err(|e| StorageError::Persistence(format!("decoded relation invalid: {e}")))?;
        schema
            .add_relation(relation)
            .map_err(|e| StorageError::Persistence(format!("decoded schema invalid: {e}")))?;
    }
    let constraints = d.usize()?;
    for _ in 0..constraints {
        let constraint = match d.u8()? {
            0 => {
                let relation = d.str()?;
                let columns = dec_strs(d)?;
                let ref_relation = d.str()?;
                let ref_columns = dec_strs(d)?;
                Constraint::ForeignKey { relation, columns, ref_relation, ref_columns }
            }
            1 => {
                let relation = d.str()?;
                let columns = dec_strs(d)?;
                Constraint::Unique { relation, columns }
            }
            other => {
                return Err(StorageError::Persistence(format!("invalid constraint tag {other}")))
            }
        };
        schema
            .add_constraint(constraint)
            .map_err(|e| StorageError::Persistence(format!("decoded constraint invalid: {e}")))?;
    }
    Ok(schema)
}

fn enc_retention(e: &mut Enc, policy: RetentionPolicy) {
    match policy {
        RetentionPolicy::KeepAll => e.u8(0),
        RetentionPolicy::ConvergedOnly => e.u8(1),
        RetentionPolicy::KeepLastN(n) => {
            e.u8(2);
            e.u64(n);
        }
    }
}

fn dec_retention(d: &mut Dec<'_>) -> Result<RetentionPolicy> {
    Ok(match d.u8()? {
        0 => RetentionPolicy::KeepAll,
        1 => RetentionPolicy::ConvergedOnly,
        2 => RetentionPolicy::KeepLastN(d.u64()?),
        other => return Err(StorageError::Persistence(format!("invalid retention tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// Serialises a WAL record as a frame payload. The `Codec` argument has one
/// possible value (see [`Codec`]).
pub fn encode_record(record: &WalRecord, _codec: Codec) -> Vec<u8> {
    let mut e = Enc::new(WAL_MAGIC);
    match record {
        WalRecord::Init { schema } => {
            e.u8(0);
            enc_schema(&mut e, schema);
        }
        WalRecord::RegisterPolicy { policy } => {
            e.u8(1);
            enc_policy(&mut e, policy);
        }
        WalRecord::Publish { participant, epoch, transactions } => {
            e.u8(2);
            enc_participant(&mut e, *participant);
            e.u64(epoch.as_u64());
            e.u64(transactions.len() as u64);
            for txn in transactions {
                enc_transaction(&mut e, txn);
            }
        }
        WalRecord::CommitReconciliation { participant, recno, epoch, accepted, rejected } => {
            e.u8(3);
            enc_participant(&mut e, *participant);
            e.u64(recno.0);
            e.u64(epoch.as_u64());
            enc_txn_ids(&mut e, accepted);
            enc_txn_ids(&mut e, rejected);
        }
        WalRecord::Decisions { participant, accepted, rejected } => {
            e.u8(4);
            enc_participant(&mut e, *participant);
            enc_txn_ids(&mut e, accepted);
            enc_txn_ids(&mut e, rejected);
        }
        WalRecord::MembershipFrontier { epoch } => {
            e.u8(5);
            e.u64(epoch.as_u64());
        }
        WalRecord::RetireParticipant { participant } => {
            e.u8(6);
            enc_participant(&mut e, *participant);
        }
        WalRecord::Prune { horizon } => {
            e.u8(7);
            e.u64(horizon.as_u64());
        }
        WalRecord::EpochMode { causal } => {
            e.u8(8);
            e.bool(*causal);
        }
        WalRecord::PublishCausal { epoch, stamp, transactions } => {
            e.u8(9);
            e.u64(epoch.as_u64());
            enc_causal_stamp(&mut e, stamp);
            e.u64(transactions.len() as u64);
            for txn in transactions {
                enc_transaction(&mut e, txn);
            }
        }
        WalRecord::Retention { policy } => {
            e.u8(11);
            enc_retention(&mut e, *policy);
        }
    }
    e.buf
}

/// Deserialises a WAL record from a frame payload.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    if payload.first() != Some(&WAL_MAGIC) {
        return Err(bad_magic("WAL record", WAL_MAGIC, payload));
    }
    let mut d = Dec::new(&payload[1..]);
    let record = match d.u8()? {
        0 => WalRecord::Init { schema: dec_schema(&mut d)? },
        1 => WalRecord::RegisterPolicy { policy: dec_policy(&mut d)? },
        2 => {
            let participant = dec_participant(&mut d)?;
            let epoch = Epoch(d.u64()?);
            let len = d.usize()?;
            let mut transactions = Vec::with_capacity(len);
            for _ in 0..len {
                transactions.push(dec_transaction(&mut d)?);
            }
            WalRecord::Publish { participant, epoch, transactions }
        }
        3 => {
            let participant = dec_participant(&mut d)?;
            let recno = ReconciliationId(d.u64()?);
            let epoch = Epoch(d.u64()?);
            let accepted = dec_txn_ids(&mut d)?;
            let rejected = dec_txn_ids(&mut d)?;
            WalRecord::CommitReconciliation { participant, recno, epoch, accepted, rejected }
        }
        4 => {
            let participant = dec_participant(&mut d)?;
            let accepted = dec_txn_ids(&mut d)?;
            let rejected = dec_txn_ids(&mut d)?;
            WalRecord::Decisions { participant, accepted, rejected }
        }
        5 => WalRecord::MembershipFrontier { epoch: Epoch(d.u64()?) },
        6 => WalRecord::RetireParticipant { participant: dec_participant(&mut d)? },
        7 => WalRecord::Prune { horizon: Epoch(d.u64()?) },
        8 => WalRecord::EpochMode { causal: d.bool()? },
        9 => {
            let epoch = Epoch(d.u64()?);
            let stamp = dec_causal_stamp(&mut d)?;
            let len = d.usize()?;
            let mut transactions = Vec::with_capacity(len);
            for _ in 0..len {
                transactions.push(dec_transaction(&mut d)?);
            }
            WalRecord::PublishCausal { epoch, stamp, transactions }
        }
        // Tag 10 was the instance checkpoint: retired, never to be reused.
        11 => WalRecord::Retention { policy: dec_retention(&mut d)? },
        other => return Err(StorageError::Persistence(format!("invalid record tag {other}"))),
    };
    d.finish()?;
    Ok(record)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

fn enc_record_map(e: &mut Enc, record: &ParticipantRecord) {
    // The decision map is hash-backed: write it sorted by transaction id so
    // equal records encode byte-identically.
    let decisions: BTreeMap<TransactionId, Decision> =
        record.decisions.iter().map(|(&id, &d)| (id, d)).collect();
    e.u64(decisions.len() as u64);
    for (id, decision) in decisions {
        enc_txn_id(e, id);
        e.u8(match decision {
            Decision::Accepted => 0,
            Decision::Rejected => 1,
        });
    }
    enc_txn_ids(e, &record.accepted_order);
    e.u64(record.reconciliations.len() as u64);
    for (recno, epoch) in &record.reconciliations {
        e.u64(recno.0);
        e.u64(epoch.as_u64());
    }
}

fn dec_record_map(d: &mut Dec<'_>) -> Result<ParticipantRecord> {
    let mut record = ParticipantRecord::new();
    let decisions = d.usize()?;
    for _ in 0..decisions {
        let id = dec_txn_id(d)?;
        let decision = match d.u8()? {
            0 => Decision::Accepted,
            1 => Decision::Rejected,
            other => {
                return Err(StorageError::Persistence(format!("invalid decision tag {other}")))
            }
        };
        record.decisions.insert(id, decision);
    }
    record.accepted_order = dec_txn_ids(d)?;
    let reconciliations = d.usize()?;
    for _ in 0..reconciliations {
        let recno = ReconciliationId(d.u64()?);
        let epoch = Epoch(d.u64()?);
        record.reconciliations.push((recno, epoch));
    }
    // Derived sets stay empty: the caller rebuilds them.
    Ok(record)
}

/// Serialises a snapshot as a frame payload.
pub fn encode_snapshot(snapshot: &StoreSnapshot) -> Vec<u8> {
    let mut e = Enc::new(SNAPSHOT_MAGIC);
    enc_schema(&mut e, &snapshot.schema);
    e.u64(snapshot.registry.records.len() as u64);
    for (epoch, record) in snapshot.registry.records() {
        e.u64(epoch);
        enc_participant(&mut e, record.publisher);
        e.u8(match record.status {
            PublicationStatus::Started => 0,
            PublicationStatus::Finished => 1,
        });
    }
    e.u64(snapshot.registry.next);
    e.u64(snapshot.registry.stable);
    let causal = &snapshot.registry.causal;
    e.bool(causal.enabled);
    e.u64(causal.nodes.len() as u64);
    for (&id, node) in &causal.nodes {
        enc_stamp_id(&mut e, id);
        enc_clock(&mut e, &node.parents);
        e.u64(node.epoch.as_u64());
    }
    enc_clock(&mut e, &causal.frontier);
    e.u64(snapshot.log.entries.len() as u64);
    for (pos, entry) in &snapshot.log.entries {
        e.u64(*pos);
        e.u64(entry.epoch.as_u64());
        enc_transaction(&mut e, &entry.transaction);
    }
    e.u64(snapshot.log.next_pos);
    e.u64(snapshot.membership_frontier.as_u64());
    e.u64(snapshot.pruned_through.as_u64());
    enc_retention(&mut e, snapshot.retention);
    e.u64(snapshot.participants.len() as u64);
    for p in &snapshot.participants {
        enc_participant(&mut e, p.id);
        enc_policy(&mut e, &p.policy);
        e.bool(p.registered);
        e.bool(p.retired);
        match p.cursor {
            Some(cursor) => {
                e.u8(1);
                e.u64(cursor.as_u64());
            }
            None => e.u8(0),
        }
        e.u64(p.relevance_floor.as_u64());
        enc_record_map(&mut e, &p.record);
    }
    e.u64(snapshot.wal_generation);
    e.buf
}

/// Deserialises a snapshot from a frame payload. Derived indexes and sets
/// are *not* rebuilt — callers do that.
pub fn decode_snapshot(payload: &[u8]) -> Result<StoreSnapshot> {
    if payload.first() != Some(&SNAPSHOT_MAGIC) {
        return Err(bad_magic("snapshot", SNAPSHOT_MAGIC, payload));
    }
    let mut d = Dec::new(&payload[1..]);
    let schema = dec_schema(&mut d)?;
    let mut registry = EpochRegistry::new();
    let records_len = d.usize()?;
    let mut records = Vec::with_capacity(records_len);
    for _ in 0..records_len {
        let epoch = d.u64()?;
        let publisher = dec_participant(&mut d)?;
        let status = match d.u8()? {
            0 => PublicationStatus::Started,
            1 => PublicationStatus::Finished,
            other => return Err(StorageError::Persistence(format!("invalid status tag {other}"))),
        };
        records.push((epoch, EpochRecord { publisher, status }));
    }
    registry.restore(records, d.u64()?)?;
    registry.stable = d.u64()?;
    {
        let causal = registry.causal_mut();
        causal.enabled = d.bool()?;
        let nodes = d.usize()?;
        for _ in 0..nodes {
            let id = dec_stamp_id(&mut d)?;
            let parents = dec_clock(&mut d)?;
            let epoch = Epoch(d.u64()?);
            causal.nodes.insert(id, CausalNode { parents, epoch });
        }
        causal.frontier = dec_clock(&mut d)?;
    }
    let mut log = TransactionLog::new();
    let entries = d.usize()?;
    for _ in 0..entries {
        let pos = d.u64()?;
        let epoch = Epoch(d.u64()?);
        let transaction = Arc::new(dec_transaction(&mut d)?);
        log.push_decoded(pos, LogEntry::new(epoch, transaction))?;
    }
    log.next_pos = d.u64()?;
    if let Some((last, _)) = log.entries.last() {
        if *last >= log.next_pos {
            return Err(StorageError::Persistence(format!(
                "snapshot log entry at position {last} is not below the position counter {}",
                log.next_pos
            )));
        }
    }
    let membership_frontier = Epoch(d.u64()?);
    let pruned_through = Epoch(d.u64()?);
    let retention = dec_retention(&mut d)?;
    let participants_len = d.usize()?;
    let mut participants = Vec::with_capacity(participants_len);
    for _ in 0..participants_len {
        let id = dec_participant(&mut d)?;
        let policy = dec_policy(&mut d)?;
        let registered = d.bool()?;
        let retired = d.bool()?;
        let cursor = match d.u8()? {
            0 => None,
            1 => Some(Epoch(d.u64()?)),
            other => return Err(StorageError::Persistence(format!("invalid cursor tag {other}"))),
        };
        let relevance_floor = Epoch(d.u64()?);
        let record = dec_record_map(&mut d)?;
        participants.push(ParticipantSnapshot {
            id,
            policy,
            registered,
            retired,
            cursor,
            relevance_floor,
            record,
        });
    }
    let wal_generation = d.u64()?;
    d.finish()?;
    Ok(StoreSnapshot {
        schema,
        registry,
        log,
        membership_frontier,
        pruned_through,
        retention,
        participants,
        wal_generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_model::schema::bioinformatics_schema;

    fn sample_transaction(participant: u32, local: u64) -> Transaction {
        let p = ParticipantId(participant);
        Transaction::from_parts(
            p,
            local,
            vec![
                Update::insert("Function", Tuple::of_text(&["rat", "prot1", "a"]), p),
                Update::modify(
                    "Function",
                    Tuple::of_text(&["rat", "prot1", "a"]),
                    Tuple::new(vec![Value::Text("rat".into()), Value::Int(-7), Value::Float(1.5)]),
                    p,
                ),
                Update::delete("Term", Tuple::new(vec![Value::Null, Value::Bool(true)]), p),
            ],
        )
        .unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        let p = ParticipantId(3);
        let txn = sample_transaction(3, 0);
        let policy =
            TrustPolicy::new(p).trusting(ParticipantId(2), 4u32).with_rule(AcceptanceRule::new(
                Predicate::And(vec![
                    Predicate::OverRelation("Function".to_string()),
                    Predicate::Not(Box::new(Predicate::OfKind(UpdateKind::Delete))),
                    Predicate::Or(vec![
                        Predicate::FromAnyOf(vec![ParticipantId(1), ParticipantId(2)]),
                        Predicate::WritesValue {
                            column: "function".to_string(),
                            equals: Value::Text("immune".into()),
                        },
                        Predicate::True,
                        Predicate::False,
                    ]),
                ]),
                9u32,
            ));
        vec![
            WalRecord::Init { schema: bioinformatics_schema() },
            WalRecord::RegisterPolicy { policy },
            WalRecord::Publish { participant: p, epoch: Epoch(1), transactions: vec![txn.clone()] },
            WalRecord::CommitReconciliation {
                participant: ParticipantId(2),
                recno: ReconciliationId(1),
                epoch: Epoch(1),
                accepted: vec![txn.id()],
                rejected: vec![TransactionId::new(ParticipantId(9), 4)],
            },
            WalRecord::Decisions {
                participant: ParticipantId(2),
                accepted: vec![],
                rejected: vec![txn.id()],
            },
            WalRecord::MembershipFrontier { epoch: Epoch(u64::MAX) },
            WalRecord::RetireParticipant { participant: ParticipantId(2) },
            WalRecord::Prune { horizon: Epoch(7) },
            WalRecord::EpochMode { causal: true },
            WalRecord::PublishCausal {
                epoch: Epoch(2),
                stamp: CausalStamp::new(
                    p,
                    4,
                    AntichainClock::from_stamps([
                        StampId::new(ParticipantId(1), 2),
                        StampId::new(p, 3),
                    ]),
                ),
                transactions: vec![sample_transaction(3, 1)],
            },
            WalRecord::Retention { policy: RetentionPolicy::ConvergedOnly },
            WalRecord::Retention { policy: RetentionPolicy::KeepLastN(300) },
        ]
    }

    #[test]
    fn varints_round_trip_across_the_range() {
        let mut buf = Vec::new();
        let values =
            [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // A truncated varint errors instead of looping.
        assert!(read_varint(&[0x80], &mut 0).is_err());
        // An over-long varint errors instead of silently wrapping.
        assert!(read_varint(&[0xFF; 11], &mut 0).is_err());
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let payload = encode_record(&record, Codec::Binary);
            assert_eq!(payload[0], WAL_MAGIC);
            assert_eq!(decode_record(&payload).unwrap(), record);
        }
    }

    #[test]
    fn binary_encoding_is_deterministic() {
        for record in sample_records() {
            assert_eq!(
                encode_record(&record, Codec::Binary),
                encode_record(&record, Codec::Binary)
            );
        }
    }

    /// What the parent commit's JSON debug codec wrote for these values: a
    /// payload that does not start with the magic byte is a typed error, not
    /// a second format to sniff and not a panic.
    #[test]
    fn payloads_without_the_magic_byte_are_typed_errors() {
        let json_record = br#"{"Prune":{"horizon":7}}"#;
        let json_snapshot = concat!(
            r#"{"schema":{"relations":[],"constraints":[]},"#,
            r#""registry":{"records":[],"next":1,"stable":0,"#,
            r#""causal":{"enabled":false,"nodes":[],"frontier":{"members":[]}}},"#,
            r#""log":{"entries":[],"next_pos":0},"membership_frontier":0,"#,
            r#""pruned_through":0,"participants":[],"wal_generation":1}"#,
        )
        .as_bytes();
        for payload in [&json_record[..], json_snapshot, &[], &[0x00], &[0xFF, 0xFE]] {
            assert!(matches!(decode_record(payload), Err(StorageError::Persistence(_))));
            assert!(matches!(decode_snapshot(payload), Err(StorageError::Persistence(_))));
        }
        // Each decoder refuses the other's magic, too.
        let record = encode_record(&WalRecord::Prune { horizon: Epoch(7) }, Codec::Binary);
        assert!(matches!(decode_snapshot(&record), Err(StorageError::Persistence(_))));
        assert!(matches!(decode_record(&[SNAPSHOT_MAGIC, 0]), Err(StorageError::Persistence(_))));
    }

    #[test]
    fn relation_interning_pays_off_on_repeated_names() {
        let p = ParticipantId(1);
        let updates: Vec<Update> = (0..20)
            .map(|i| {
                Update::insert("Function", Tuple::of_text(&["rat", &format!("prot{i}"), "fn"]), p)
            })
            .collect();
        let txn = Transaction::from_parts(p, 0, updates).unwrap();
        let record =
            WalRecord::Publish { participant: p, epoch: Epoch(1), transactions: vec![txn] };
        let binary = encode_record(&record, Codec::Binary);
        // The relation name appears once; 19 references are one varint each.
        let occurrences = binary.windows(8).filter(|w| *w == b"Function").count();
        assert_eq!(occurrences, 1);
    }

    #[test]
    fn corrupt_binary_payloads_error_cleanly() {
        let record = sample_records().remove(2);
        let binary = encode_record(&record, Codec::Binary);
        // Truncations at every prefix either error or decode to the original
        // (never panic, never a different record).
        for cut in 1..binary.len() {
            if let Ok(back) = decode_record(&binary[..cut]) {
                assert_eq!(back, record);
            }
        }
        // Trailing garbage is rejected.
        let mut padded = binary.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_err());
        // An unknown record tag is rejected, and so is the retired tag 10
        // (instance checkpoints): a typed error, not a panic.
        for tag in [0xEE, 10] {
            let refused = decode_record(&[WAL_MAGIC, tag]);
            let expected = format!("invalid record tag {tag}");
            assert!(
                matches!(&refused, Err(StorageError::Persistence(m)) if *m == expected),
                "{refused:?}"
            );
        }
    }

    /// A transaction holding an update of another origin decodes to a typed
    /// error, never to a `Transaction`: WAL publishes and snapshot log
    /// entries alike decode through `Transaction::new`, so every decoded
    /// update carries its transaction's origin, which is what deciding trust
    /// by origin rests on.
    #[test]
    fn a_transaction_with_a_foreign_update_is_refused() {
        let txn = sample_transaction(3, 0);
        let publish = |second_origin: ParticipantId| {
            let mut e = Enc::new(WAL_MAGIC);
            e.u8(2);
            enc_participant(&mut e, txn.origin());
            e.u64(1);
            e.u64(1);
            enc_txn_id(&mut e, txn.id());
            e.u64(txn.len() as u64);
            for (i, update) in txn.updates().iter().enumerate() {
                let origin = if i == 1 { second_origin } else { update.origin };
                enc_update(&mut e, &Update { origin, ..update.clone() });
            }
            e.buf
        };
        let record = WalRecord::Publish {
            participant: txn.origin(),
            epoch: Epoch(1),
            transactions: vec![txn.clone()],
        };
        assert_eq!(publish(txn.origin()), encode_record(&record, Codec::Binary));
        assert!(matches!(
            decode_record(&publish(ParticipantId(4))),
            Err(StorageError::Persistence(message)) if message.contains("decoded transaction invalid")
        ));
    }

    /// A snapshot whose log goes back in position or epoch, whose last log
    /// position is not below the counter, or whose epoch records skip an
    /// epoch decodes to a typed error, never to an unsorted index.
    #[test]
    fn out_of_order_snapshots_are_typed_errors() {
        let mut registry = EpochRegistry::new();
        let mut log = TransactionLog::new();
        for (local, epoch) in [(0, Epoch(1)), (1, Epoch(1)), (2, Epoch(2))] {
            if registry.latest_allocated() < epoch {
                registry.begin_publish(ParticipantId(1));
                registry.finish_publish(epoch).unwrap();
            }
            log.publish(epoch, sample_transaction(1, local)).unwrap();
        }
        let encode = |registry: &EpochRegistry, log: &TransactionLog| {
            encode_snapshot(&StoreSnapshot {
                schema: bioinformatics_schema(),
                registry: registry.clone(),
                log: log.clone(),
                membership_frontier: Epoch::ZERO,
                pruned_through: Epoch::ZERO,
                retention: RetentionPolicy::KeepAll,
                participants: Vec::new(),
                wal_generation: 0,
            })
        };
        let refused =
            |payload: &[u8]| matches!(decode_snapshot(payload), Err(StorageError::Persistence(_)));
        let back = decode_snapshot(&encode(&registry, &log)).unwrap();
        assert_eq!(format!("{:?}", back.registry), format!("{registry:?}"));
        assert_eq!(format!("{:?}", back.log), format!("{log:?}"));

        let mut positions_back = log.clone();
        positions_back.entries.swap(0, 1);
        assert!(refused(&encode(&registry, &positions_back)));
        let mut epochs_back = log.clone();
        epochs_back.entries[2].1.epoch = Epoch::ZERO;
        assert!(refused(&encode(&registry, &epochs_back)));
        let mut counter_behind = log.clone();
        counter_behind.next_pos = 2;
        assert!(refused(&encode(&registry, &counter_behind)));

        // The records follow the schema as (epoch, publisher, status)
        // triples of one byte each here: make the second one epoch 3.
        let mut schema = Enc::new(SNAPSHOT_MAGIC);
        enc_schema(&mut schema, &bioinformatics_schema());
        let records = schema.buf.len();
        let mut skipping = encode(&registry, &log);
        assert_eq!(skipping[records..records + 5], [2, 1, 1, 1, 2]);
        skipping[records + 4] = 3;
        assert!(refused(&skipping));
    }

    #[test]
    fn snapshots_round_trip() {
        let p = ParticipantId(1);
        let mut registry = EpochRegistry::new();
        let e1 = registry.begin_publish(p);
        registry.finish_publish(e1).unwrap();
        registry.begin_publish(ParticipantId(2));
        registry.causal_mut().enable();
        registry.causal_mut().ingest(&CausalStamp::new(p, 1, AntichainClock::new()), e1).unwrap();
        let mut log = TransactionLog::new();
        let txn = sample_transaction(1, 0);
        log.publish(e1, txn.clone()).unwrap();
        let mut record = ParticipantRecord::new();
        record.record(txn.id(), Decision::Accepted);
        record.record(TransactionId::new(ParticipantId(2), 0), Decision::Rejected);
        record.record_reconciliation(ReconciliationId(1), e1);
        let snapshot = StoreSnapshot {
            schema: bioinformatics_schema(),
            registry,
            log,
            membership_frontier: Epoch(2),
            pruned_through: Epoch::ZERO,
            retention: RetentionPolicy::ConvergedOnly,
            participants: vec![ParticipantSnapshot {
                id: p,
                policy: TrustPolicy::new(p).trusting(ParticipantId(2), 1u32),
                registered: true,
                retired: false,
                cursor: Some(e1),
                relevance_floor: Epoch::ZERO,
                record,
            }],
            wal_generation: 5,
        };
        let payload = encode_snapshot(&snapshot);
        assert_eq!(payload[0], SNAPSHOT_MAGIC);
        let mut back = decode_snapshot(&payload).unwrap();
        back.log.rebuild_indexes();
        for p in &mut back.participants {
            p.record.rebuild_sets();
        }
        assert_eq!(back.wal_generation, 5);
        assert_eq!(back.retention, RetentionPolicy::ConvergedOnly);
        assert_eq!(back.schema, snapshot.schema);
        assert_eq!(back.registry.largest_stable_epoch(), Epoch(1));
        assert_eq!(back.registry.latest_allocated(), Epoch(2));
        assert!(back.registry.causal().is_enabled());
        assert_eq!(back.registry.causal().last_seq(p), 1);
        assert_eq!(
            back.registry.causal().epoch_of(StampId::new(p, 1)),
            Some(Epoch(1)),
            "causal DAG node survives the snapshot"
        );
        assert_eq!(back.participants[0].cursor, Some(e1));
        assert_eq!(back.log.get(txn.id()).unwrap(), &txn);
        assert_eq!(back.participants.len(), 1);
        assert_eq!(back.participants[0].record.accepted_set().len(), 1);
        assert_eq!(back.participants[0].record.rejected_set().len(), 1);
        assert_eq!(
            back.participants[0].record.last_reconciliation(),
            Some((ReconciliationId(1), Epoch(1)))
        );
        // The full rendering (decision maps, orders, cursors) matches.
        assert_eq!(
            format!("{:?}", back.participants[0].record),
            format!("{:?}", snapshot.participants[0].record)
        );
    }
}
