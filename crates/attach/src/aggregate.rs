//! Maintained aggregates ("attachments … may have associated storage.
//! This storage can be used to … maintain statistics about relations or
//! precomputed function values for data stored in relations").
//!
//! Each instance maintains `COUNT(*)` and `SUM(<field>)` per group (or a
//! single global group) in a B-tree keyed by the encoded group value.
//! Maintenance is incremental: every relation modification applies a
//! delta and logs the group's *before- and after-images* ([`A_DELTA`]);
//! undo restores before-images in reverse log order and redo installs
//! after-images in forward log order. Full images rather than deltas make
//! both directions idempotent, which matters because numeric deltas are
//! not presence-checkable the way index entries are: replaying a delta
//! twice would double-count, installing an image twice cannot.

use std::sync::Arc;

use dmx_btree::{BTree, OnDuplicate};
use dmx_core::{
    AccessQuery, Attachment, AttachmentInstance, CommonServices, ExecCtx, KeyRange,
    RelationDescriptor, ScanItem, ScanOps, TreeEntries, TreeScan,
};
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, FileId, Lsn, PageId, Record, RecordKey, Result, Schema, Value,
};

use crate::common::{
    decode_att_payload, encode_att_payload, log_att, read_u16, read_u32, read_u64, A_DELTA,
};

/// The maintained-aggregate attachment type.
pub struct Aggregate;

/// Instance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct AggDesc {
    pub file: FileId,
    pub root_page: u32,
    /// Field whose SUM is maintained.
    pub sum_field: FieldId,
    /// Optional grouping field (`None` = one global group).
    pub group_field: Option<FieldId>,
}

impl AggDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(13);
        v.extend_from_slice(&self.file.0.to_le_bytes());
        v.extend_from_slice(&self.root_page.to_le_bytes());
        v.extend_from_slice(&self.sum_field.to_le_bytes());
        match self.group_field {
            None => v.push(0),
            Some(g) => {
                v.push(1);
                v.extend_from_slice(&g.to_le_bytes());
            }
        }
        v
    }

    pub fn decode(b: &[u8]) -> Result<AggDesc> {
        const WHAT: &str = "aggregate descriptor";
        let corrupt = || DmxError::Corrupt(format!("short {WHAT}"));
        let file = FileId(read_u32(b, 0, WHAT)?);
        let root_page = read_u32(b, 4, WHAT)?;
        let sum_field = read_u16(b, 8, WHAT)?;
        let group_field = match *b.get(10).ok_or_else(corrupt)? {
            0 => None,
            _ => Some(read_u16(b, 11, WHAT)?),
        };
        Ok(AggDesc {
            file,
            root_page,
            sum_field,
            group_field,
        })
    }
}

fn encode_cell(count: i64, sum: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&count.to_le_bytes());
    v.extend_from_slice(&sum.to_le_bytes());
    v
}

fn decode_cell(b: &[u8]) -> Result<(i64, f64)> {
    Ok((
        read_u64(b, 0, "aggregate cell")? as i64,
        f64::from_bits(read_u64(b, 8, "aggregate cell")?),
    ))
}

/// Before-image of a group's cell: `[0]` = absent, `[1] ∥ cell` = present.
fn encode_before(cell: Option<(i64, f64)>) -> Vec<u8> {
    match cell {
        None => vec![0],
        Some((c, s)) => {
            let mut v = vec![1];
            v.extend_from_slice(&encode_cell(c, s));
            v
        }
    }
}

/// A group cell's logged image: `None` = the group was absent,
/// `Some((count, sum))` otherwise.
type CellImage = Option<(i64, f64)>;

fn decode_before(b: &[u8]) -> Result<CellImage> {
    match b.split_first() {
        Some((0, _)) => Ok(None),
        Some((1, rest)) => Ok(Some(decode_cell(rest)?)),
        _ => Err(DmxError::Corrupt("bad aggregate before-image".into())),
    }
}

/// Logged images of a group's cell: before-image then after-image, each
/// self-delimiting ([`encode_before`]).
fn encode_images(before: Option<(i64, f64)>, after: Option<(i64, f64)>) -> Vec<u8> {
    let mut v = encode_before(before);
    v.extend_from_slice(&encode_before(after));
    v
}

fn decode_images(b: &[u8]) -> Result<(CellImage, CellImage)> {
    let first_len = match b.first() {
        Some(0) => 1,
        Some(1) => 17,
        _ => return Err(DmxError::Corrupt("bad aggregate image pair".into())),
    };
    let rest = b
        .get(first_len..)
        .ok_or_else(|| DmxError::Corrupt("short aggregate image pair".into()))?;
    Ok((decode_before(b)?, decode_before(rest)?))
}

impl Aggregate {
    fn tree(services: &Arc<CommonServices>, d: &AggDesc) -> BTree {
        BTree::open(
            &services.pool,
            PageId::new(d.file, d.root_page),
            &services.latches,
        )
    }

    fn group_key(d: &AggDesc, record: &Record) -> Result<Vec<u8>> {
        match d.group_field {
            None => Ok(encode_values(&[Value::Int(0)])),
            Some(g) => {
                let v = record
                    .values
                    .get(g as usize)
                    .cloned()
                    .ok_or_else(|| DmxError::InvalidArg(format!("no field {g}")))?;
                Ok(encode_values(&[v]))
            }
        }
    }

    fn sum_value(d: &AggDesc, record: &Record) -> Result<f64> {
        match record.values.get(d.sum_field as usize) {
            Some(Value::Null) | None => Ok(0.0),
            Some(v) => v.as_float(),
        }
    }

    /// Reads a group's before-image (for undo logging).
    fn read_before(
        services: &Arc<CommonServices>,
        desc: &[u8],
        group: &[u8],
    ) -> Result<Option<(i64, f64)>> {
        let d = AggDesc::decode(desc)?;
        Ok(match Self::tree(services, &d).get(group)? {
            Some(cell) => Some(decode_cell(&cell)?),
            None => None,
        })
    }

    /// Installs a group's cell image (undo restores before-images, redo
    /// installs after-images; forward execution installs the after-image
    /// it just computed). Every dirtied page is stamped with `lsn` so the
    /// cell cannot reach disk before its log record (write-ahead).
    fn install_image(
        services: &Arc<CommonServices>,
        desc: &[u8],
        group: &[u8],
        image: Option<(i64, f64)>,
        lsn: Lsn,
    ) -> Result<()> {
        let d = AggDesc::decode(desc)?;
        let tree = Self::tree(services, &d).with_wal_lsn(lsn);
        match image {
            None => {
                tree.delete(group)?;
            }
            Some((c, s)) => {
                tree.insert(group, &encode_cell(c, s), OnDuplicate::Replace)?;
            }
        }
        Ok(())
    }

    fn delta(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        inst: &AttachmentInstance,
        record: &Record,
        sign: i64,
    ) -> Result<()> {
        let d = AggDesc::decode(&inst.desc)?;
        let group = Self::group_key(&d, record)?;
        let dsum = Self::sum_value(&d, record)? * sign as f64;
        let before = Self::read_before(ctx.services(), &inst.desc, &group)?;
        let (count, sum) = before.unwrap_or((0, 0.0));
        let (nc, ns) = (count + sign, sum + dsum);
        let after = if nc <= 0 { None } else { Some((nc, ns)) };
        let att = rd
            .attached_types()
            .find(|(_, insts)| {
                insts
                    .iter()
                    .any(|i| i.instance == inst.instance && i.name == inst.name)
            })
            .map(|(t, _)| t)
            .unwrap_or_default();
        let lsn = log_att(
            ctx,
            rd,
            att,
            A_DELTA,
            encode_att_payload(&inst.desc, &group, &encode_images(before, after)),
        );
        Self::install_image(ctx.services(), &inst.desc, &group, after, lsn)
    }
}

impl Attachment for Aggregate {
    fn name(&self) -> &str {
        "aggregate"
    }

    fn validate_params(&self, params: &AttrList, schema: &Schema) -> Result<()> {
        params.check_allowed(&["sum", "group_by"], "aggregate")?;
        schema.field_id(params.require("sum", "aggregate")?)?;
        if let Some(g) = params.get("group_by") {
            schema.field_id(g)?;
        }
        Ok(())
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        let sum_field = rd.schema.field_id(params.require("sum", "aggregate")?)?;
        let group_field = match params.get("group_by") {
            Some(g) => Some(rd.schema.field_id(g)?),
            None => None,
        };
        let services = ctx.services();
        let file = services.disk.create_file()?;
        let tree = BTree::create(&services.pool, file, &services.latches)?;
        Ok(AggDesc {
            file,
            root_page: tree.root().page_no,
            sum_field,
            group_field,
        }
        .encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        let d = AggDesc::decode(inst_desc)?;
        services.latches.forget(PageId::new(d.file, d.root_page));
        services.pool.discard_file(d.file);
        services.disk.delete_file(d.file)
    }

    fn on_insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        _key: &RecordKey,
        new: &Record,
    ) -> Result<()> {
        for inst in instances {
            self.delta(ctx, rd, inst, new, 1)?;
        }
        Ok(())
    }

    fn on_update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        _old_key: &RecordKey,
        _new_key: &RecordKey,
        old: &Record,
        new: &Record,
    ) -> Result<()> {
        for inst in instances {
            self.delta(ctx, rd, inst, old, -1)?;
            self.delta(ctx, rd, inst, new, 1)?;
        }
        Ok(())
    }

    fn on_delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        _key: &RecordKey,
        old: &Record,
    ) -> Result<()> {
        for inst in instances {
            self.delta(ctx, rd, inst, old, -1)?;
        }
        Ok(())
    }

    fn undo(
        &self,
        services: &Arc<CommonServices>,
        _rd: &RelationDescriptor,
        lsn: Lsn,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        if op != A_DELTA {
            return Err(DmxError::Corrupt(format!("bad aggregate op {op}")));
        }
        let (desc, group, images) = decode_att_payload(payload)?;
        let (before, _) = decode_images(images)?;
        // Restoring full before-images in reverse log order is correct
        // regardless of which deltas actually reached disk.
        Self::install_image(services, desc, group, before, lsn)
    }

    fn redo(
        &self,
        services: &Arc<CommonServices>,
        _rd: &RelationDescriptor,
        lsn: Lsn,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        if op != A_DELTA {
            return Err(DmxError::Corrupt(format!("bad aggregate op {op}")));
        }
        let (desc, group, images) = decode_att_payload(payload)?;
        let (_, after) = decode_images(images)?;
        // Installing full after-images in forward log order converges on
        // the committed cell values no matter how much reached disk.
        Self::install_image(services, desc, group, after, lsn)
    }

    fn supports_access(&self) -> bool {
        true
    }

    /// Reads the maintained aggregates: each item is
    /// `(group value, count, sum)`.
    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let d = AggDesc::decode(&instance.desc)?;
        let tree = Self::tree(ctx.services(), &d);
        let range = match query {
            AccessQuery::All => KeyRange::all(),
            AccessQuery::KeyEquals(k) => KeyRange::exact(k.clone()),
            AccessQuery::Range(r) => r.clone(),
            AccessQuery::Spatial(_, _) => {
                return Err(DmxError::Unsupported("aggregate: spatial query".into()))
            }
        };
        Ok(Box::new(TreeScan::new(&tree, range, rd.id, AggEntries)))
    }
}

/// Aggregate cells: `enc(group) → (count, sum)`.
struct AggEntries;

impl TreeEntries for AggEntries {
    fn item(&self, _ctx: &ExecCtx<'_>, key: Vec<u8>, cell: Vec<u8>) -> Result<Option<ScanItem>> {
        let group = decode_values(&key, 1)?
            .pop()
            .ok_or_else(|| DmxError::Corrupt("empty aggregate group key".into()))?;
        let (count, sum) = decode_cell(&cell)?;
        Ok(Some(ScanItem {
            key: RecordKey::new(key),
            values: Some(vec![group, Value::Int(count), Value::Float(sum)]),
        }))
    }

    fn items_are_record_keys(&self) -> bool {
        false // items are (group, count, sum) summaries
    }
}
