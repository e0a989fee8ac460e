//! Maintained aggregates ("attachments … may have associated storage.
//! This storage can be used to … maintain statistics about relations or
//! precomputed function values for data stored in relations").
//!
//! Each instance maintains `COUNT(*)` and `SUM(<field>)` per group (or a
//! single global group) in a B-tree keyed by the encoded group value.
//! Maintenance is incremental: every relation modification reads the
//! group's cell, applies a delta and writes the new cell through the one
//! logged tree write ([`dmx_core::write_tree`]), whose log record holds
//! the cell's before- and after-state. Undo restores the before-state and
//! redo installs the after-state. Full cells rather than deltas make both
//! directions idempotent: replaying a delta twice would double-count,
//! installing a cell twice cannot.

use std::sync::Arc;

use dmx_core::{
    redo_tree_write, undo_tree_write, write_tree, AccessQuery, Attachment, AttachmentInstance,
    CommonServices, ExecCtx, KeyRange, RelationDescriptor, ScanItem, ScanOps, TreeEntries, TreeRef,
    TreeScan,
};
use dmx_types::{
    key::{decode_values, encode_values},
    AttrList, DmxError, FieldId, FileId, Lsn, Record, RecordKey, Result, Schema, Value,
};
use dmx_wal::ExtKind;

use crate::common::{read_u16, read_u64};

/// The maintained-aggregate attachment type.
pub struct Aggregate;

/// Instance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct AggDesc {
    pub tree: TreeRef,
    /// Field whose SUM is maintained.
    pub sum_field: FieldId,
    /// Optional grouping field (`None` = one global group).
    pub group_field: Option<FieldId>,
}

impl AggDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(13);
        self.tree.encode_into(&mut v);
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
        let tree = TreeRef::decode_at(b, 0)?;
        let sum_field = read_u16(b, 8, WHAT)?;
        let group_field = match *b.get(10).ok_or_else(corrupt)? {
            0 => None,
            _ => Some(read_u16(b, 11, WHAT)?),
        };
        Ok(AggDesc {
            tree,
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

impl Aggregate {
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
        let before = d.tree.open(ctx.services()).get(&group)?;
        let (count, sum) = match &before {
            Some(cell) => decode_cell(cell)?,
            None => (0, 0.0),
        };
        let (nc, ns) = (count + sign, sum + dsum);
        let after = (nc > 0).then(|| encode_cell(nc, ns));
        let ext = ExtKind::Attachment(rd.attachment_type(inst)?);
        let (old, new) = (before.as_deref(), after.as_deref());
        write_tree(ctx, ext, rd.id, d.tree, &group, old, new)
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
        Ok(AggDesc {
            tree: TreeRef::create(ctx.services())?,
            sum_field,
            group_field,
        }
        .encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        AggDesc::decode(inst_desc)?.tree.destroy(services)
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
        undo_tree_write(services, lsn, op, payload).map(drop)
    }

    fn redo(
        &self,
        services: &Arc<CommonServices>,
        _rd: &RelationDescriptor,
        lsn: Lsn,
        op: u8,
        payload: &[u8],
    ) -> Result<()> {
        redo_tree_write(services, lsn, op, payload).map(drop)
    }

    fn storage_files(&self, inst_desc: &[u8]) -> Vec<FileId> {
        AggDesc::decode(inst_desc)
            .map(|d| vec![d.tree.file])
            .unwrap_or_default()
    }

    fn reconstruct_params(&self, rd: &RelationDescriptor, inst_desc: &[u8]) -> Result<AttrList> {
        let d = AggDesc::decode(inst_desc)?;
        let name = |f: FieldId| rd.schema.column(f).map(|c| c.name.clone());
        let mut pairs = vec![("sum".to_string(), name(d.sum_field)?)];
        if let Some(g) = d.group_field {
            pairs.push(("group_by".to_string(), name(g)?));
        }
        AttrList::from_pairs(pairs)
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
        let tree = d.tree.open(ctx.services());
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
