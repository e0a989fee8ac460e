//! The hash-table access path.
//!
//! Equality-only: entries are organized by a 64-bit hash of the indexed
//! field values (`hash ∥ enc(values) ∥ record_key`), so only exact-match
//! probes are supported — the architecturally interesting part is the
//! *relevance determination*: [`HashIndex::estimate`] recognizes only
//! equality predicates over **all** indexed fields, and reports itself
//! irrelevant to ranges (the paper: each access path "can determine the
//! relevance of the predicates to the access path instance").

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use dmx_core::{
    redo_tree_write, undo_tree_write, write_tree, AccessPath, AccessQuery, Attachment,
    AttachmentInstance, CommonServices, Cost, ExecCtx, KeyRange, PathChoice, RelationDescriptor,
    ScanItem, ScanOps, TreeEntries, TreeRef, TreeScan,
};
use dmx_expr::{analyze, Expr, SargOp};
use dmx_types::{
    key::encode_values, AttrList, DmxError, FieldId, FileId, Lsn, Record, RecordKey, Result,
    Schema, Value,
};
use dmx_wal::ExtKind;

use crate::common::{field_values, parse_fields, prefix_successor, read_u16, tail};

/// The hash-index attachment type.
pub struct HashIndex;

/// Instance descriptor: tree + field list.
#[derive(Debug, Clone, PartialEq)]
pub struct HashDesc {
    pub tree: TreeRef,
    pub fields: Vec<FieldId>,
}

impl HashDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(10 + self.fields.len() * 2);
        self.tree.encode_into(&mut v);
        v.extend_from_slice(&(self.fields.len() as u16).to_le_bytes());
        for f in &self.fields {
            v.extend_from_slice(&f.to_le_bytes());
        }
        v
    }

    pub fn decode(b: &[u8]) -> Result<HashDesc> {
        const WHAT: &str = "hash descriptor";
        let tree = TreeRef::decode_at(b, 0)?;
        let n = read_u16(b, 8, WHAT)? as usize;
        let mut fields = Vec::with_capacity(n);
        for i in 0..n {
            fields.push(read_u16(b, 10 + 2 * i, WHAT)?);
        }
        Ok(HashDesc { tree, fields })
    }
}

fn hash_bytes(values_enc: &[u8]) -> [u8; 8] {
    let mut h = DefaultHasher::new();
    values_enc.hash(&mut h);
    h.finish().to_be_bytes()
}

/// `hash ∥ enc(values)` — the probe prefix.
fn probe_prefix(values_enc: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + values_enc.len());
    v.extend_from_slice(&hash_bytes(values_enc));
    v.extend_from_slice(values_enc);
    v
}

impl HashIndex {
    fn entry_key(d: &HashDesc, record: &Record, rkey: &RecordKey) -> Result<Vec<u8>> {
        let enc = encode_values(&field_values(record, &d.fields)?);
        let mut full = probe_prefix(&enc);
        full.extend_from_slice(rkey.as_bytes());
        Ok(full)
    }
}

impl Attachment for HashIndex {
    fn name(&self) -> &str {
        "hash"
    }

    fn validate_params(&self, params: &AttrList, schema: &Schema) -> Result<()> {
        params.check_allowed(&["fields"], "hash index")?;
        parse_fields(params, "fields", "hash index", schema).map(|_| ())
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        _name: &str,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        let fields = parse_fields(params, "fields", "hash index", &rd.schema)?;
        let tree = TreeRef::create(ctx.services())?;
        Ok(HashDesc { tree, fields }.encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, inst_desc: &[u8]) -> Result<()> {
        HashDesc::decode(inst_desc)?.tree.destroy(services)
    }

    fn on_insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        key: &RecordKey,
        new: &Record,
    ) -> Result<()> {
        for inst in instances {
            let d = HashDesc::decode(&inst.desc)?;
            let full = Self::entry_key(&d, new, key)?;
            let ext = ExtKind::Attachment(rd.attachment_type(inst)?);
            write_tree(ctx, ext, rd.id, d.tree, &full, None, Some(key.as_bytes()))?;
        }
        Ok(())
    }

    fn on_update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        old_key: &RecordKey,
        new_key: &RecordKey,
        old: &Record,
        new: &Record,
    ) -> Result<()> {
        for inst in instances {
            let d = HashDesc::decode(&inst.desc)?;
            let old_full = Self::entry_key(&d, old, old_key)?;
            let new_full = Self::entry_key(&d, new, new_key)?;
            if old_full == new_full {
                continue;
            }
            let ext = ExtKind::Attachment(rd.attachment_type(inst)?);
            if let Some(old) = d.tree.open(ctx.services()).get(&old_full)? {
                write_tree(ctx, ext, rd.id, d.tree, &old_full, Some(&old), None)?;
            }
            let after = Some(new_key.as_bytes());
            write_tree(ctx, ext, rd.id, d.tree, &new_full, None, after)?;
        }
        Ok(())
    }

    fn on_delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instances: &[AttachmentInstance],
        key: &RecordKey,
        old: &Record,
    ) -> Result<()> {
        for inst in instances {
            let d = HashDesc::decode(&inst.desc)?;
            let full = Self::entry_key(&d, old, key)?;
            if let Some(entry) = d.tree.open(ctx.services()).get(&full)? {
                let ext = ExtKind::Attachment(rd.attachment_type(inst)?);
                write_tree(ctx, ext, rd.id, d.tree, &full, Some(&entry), None)?;
            }
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

    fn supports_access(&self) -> bool {
        true
    }

    fn storage_files(&self, inst_desc: &[u8]) -> Vec<FileId> {
        HashDesc::decode(inst_desc)
            .map(|d| vec![d.tree.file])
            .unwrap_or_default()
    }

    fn reconstruct_params(&self, rd: &RelationDescriptor, inst_desc: &[u8]) -> Result<AttrList> {
        let d = HashDesc::decode(inst_desc)?;
        let names: Vec<&str> = d
            .fields
            .iter()
            .map(|&f| rd.schema.column(f).map(|c| c.name.as_str()))
            .collect::<Result<_>>()?;
        AttrList::from_pairs([("fields".to_string(), names.join(","))])
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        query: &AccessQuery,
    ) -> Result<Box<dyn ScanOps>> {
        let d = HashDesc::decode(&instance.desc)?;
        let tree = d.tree.open(ctx.services());
        let prefix = match query {
            AccessQuery::KeyEquals(values_enc) => probe_prefix(values_enc),
            _ => {
                return Err(DmxError::Unsupported(
                    "hash index supports only exact-key probes".into(),
                ))
            }
        };
        let hi = match prefix_successor(&prefix) {
            Some(s) => Bound::Excluded(s),
            None => Bound::Unbounded,
        };
        let range = KeyRange {
            lo: Bound::Included(prefix),
            hi,
        };
        let entries = HashEntries {
            nfields: d.fields.len(),
        };
        Ok(Box::new(TreeScan::new(&tree, range, rd.id, entries)))
    }

    fn estimate(
        &self,
        rd: &RelationDescriptor,
        instance: &AttachmentInstance,
        preds: &[Expr],
    ) -> Option<PathChoice> {
        let d = HashDesc::decode(&instance.desc).ok()?;
        // relevant only when EVERY indexed field has an equality predicate
        let sargs: Vec<_> = preds.iter().filter_map(analyze::sargable).collect();
        let mut values: Vec<Value> = Vec::with_capacity(d.fields.len());
        let mut applied = Vec::new();
        for &f in &d.fields {
            let found = sargs
                .iter()
                .find(|s| s.field == f && matches!(s.op, SargOp::Eq(_)))?;
            if let SargOp::Eq(v) = &found.op {
                values.push(v.clone());
            }
            // map back to the predicate
            applied.push(
                preds
                    .iter()
                    .find(|p| analyze::sargable(p).as_ref() == Some(found))?
                    .clone(),
            );
        }
        let enc = encode_values(&values);
        let records = rd.stats.records();
        // Matched fraction from maintained statistics when they cover
        // every hashed field; the flat 1% guess otherwise.
        let ts = rd.stats.table_stats();
        let frac: f64 = d
            .fields
            .iter()
            .zip(&values)
            .map(|(&f, v)| dmx_expr::sarg_fraction(f, &SargOp::Eq(v.clone()), ts.as_deref()))
            .product::<Option<f64>>()
            .unwrap_or(0.01);
        let rows = (records as f64 * frac).max(1.0);
        Some(PathChoice {
            path: AccessPath::Attachment(rd.attachment_type(instance).ok()?, instance.instance),
            query: AccessQuery::KeyEquals(enc),
            // a hash probe is ~1–2 page touches regardless of size
            cost: Cost::new(1.5, rows),
            rows_out: rows,
            covered: Some(d.fields.clone()),
            applied,
            ordering: None, // hash order is meaningless
        })
    }
}

/// Hash entries: `hash(8) ∥ enc(values) ∥ record key → record key`. The
/// indexed values are recoverable, so the probe covers them. Hash order
/// is no key order, so the entries are not gap-lockable.
struct HashEntries {
    nfields: usize,
}

impl TreeEntries for HashEntries {
    fn item(&self, _ctx: &ExecCtx<'_>, key: Vec<u8>, value: Vec<u8>) -> Result<Option<ScanItem>> {
        let covered =
            dmx_types::key::decode_values(tail(&key, 8, "hash index key")?, self.nfields)?;
        Ok(Some(ScanItem {
            key: RecordKey::new(value),
            values: Some(covered),
        }))
    }
}
