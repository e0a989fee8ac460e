//! The B-tree-organized storage method.
//!
//! "The records of the relation … may be stored in the leaves of a B-tree
//! index." Record keys are "composed from some subset of the fields of
//! the records" — declared in the DDL attribute list (`key = f1, f2`).
//! Updates that change key fields relocate the record, yielding a new
//! record key (the dispatcher tells attachments about both keys).

use std::ops::Bound;
use std::sync::Arc;

use dmx_core::{
    lock_write_gaps, project_values, redo_tree_write, scan_estimate, undo_tree_write, write_tree,
    AccessPath, AccessQuery, CommonServices, Cost, ExecCtx, KeyRange, PathChoice,
    RelationDescriptor, ScanItem, ScanOps, StorageMethod, TreeEntries, TreeRef, TreeScan,
};
use dmx_expr::{analyze, CmpOp, Expr, SargOp};
use dmx_types::{
    key::encode_values, AttrList, DmxError, FieldId, Lsn, Record, RecordKey, RelationId, Result,
    Schema, Value,
};
use dmx_wal::ExtKind;

use crate::util::filter_project;

/// The B-tree storage method singleton.
pub struct BTreeStorage;

/// Descriptor: tree (file u32 + root page_no u32) + key field count
/// (u16) + field ids.
#[derive(Debug, Clone, PartialEq)]
pub struct BtDesc {
    pub tree: TreeRef,
    pub key_fields: Vec<FieldId>,
}

impl BtDesc {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(10 + self.key_fields.len() * 2);
        self.tree.encode_into(&mut v);
        v.extend_from_slice(&(self.key_fields.len() as u16).to_le_bytes());
        for f in &self.key_fields {
            v.extend_from_slice(&f.to_le_bytes());
        }
        v
    }

    pub fn decode(desc: &[u8]) -> Result<BtDesc> {
        use dmx_types::bytes::le_u16;
        let corrupt = || DmxError::Corrupt("short btree-sm descriptor".into());
        let tree = TreeRef::decode_at(desc, 0)?;
        let n = le_u16(desc, 8).ok_or_else(corrupt)? as usize;
        let mut key_fields = Vec::with_capacity(n);
        for i in 0..n {
            key_fields.push(le_u16(desc, 10 + i * 2).ok_or_else(corrupt)?);
        }
        Ok(BtDesc { tree, key_fields })
    }
}

impl BTreeStorage {
    fn desc(rd: &RelationDescriptor) -> Result<BtDesc> {
        BtDesc::decode(&rd.sm_desc)
    }

    fn record_key(d: &BtDesc, record: &Record) -> Result<RecordKey> {
        let mut vals = Vec::with_capacity(d.key_fields.len());
        for &f in &d.key_fields {
            let v = record
                .values
                .get(f as usize)
                .ok_or_else(|| DmxError::InvalidArg(format!("no key field {f}")))?;
            if v.is_null() {
                return Err(DmxError::InvalidArg(
                    "B-tree storage key fields may not be NULL".into(),
                ));
            }
            vals.push(v.clone());
        }
        Ok(RecordKey::new(encode_values(&vals)))
    }

    fn parse_key_fields(params: &AttrList, schema: &Schema) -> Result<Vec<FieldId>> {
        let spec = params.require("key", "btree storage")?;
        let mut fields = Vec::new();
        for name in spec.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            let id = schema.field_id(name)?;
            if fields.contains(&id) {
                return Err(DmxError::InvalidArg(format!("duplicate key field {name}")));
            }
            fields.push(id);
        }
        if fields.is_empty() {
            return Err(DmxError::InvalidArg("empty key field list".into()));
        }
        Ok(fields)
    }

    fn duplicate(key: &RecordKey) -> DmxError {
        DmxError::Duplicate(format!("btree storage key {key:?} already exists"))
    }
}

impl StorageMethod for BTreeStorage {
    fn name(&self) -> &str {
        "btree"
    }

    fn validate_params(&self, params: &AttrList, schema: &Schema) -> Result<()> {
        params.check_allowed(&["key"], "btree storage")?;
        Self::parse_key_fields(params, schema).map(|_| ())
    }

    fn create_instance(
        &self,
        ctx: &ExecCtx<'_>,
        _rel: RelationId,
        schema: &Schema,
        params: &AttrList,
    ) -> Result<Vec<u8>> {
        let key_fields = Self::parse_key_fields(params, schema)?;
        let tree = TreeRef::create(ctx.services())?;
        Ok(BtDesc { tree, key_fields }.encode())
    }

    fn destroy_instance(&self, services: &Arc<CommonServices>, sm_desc: &[u8]) -> Result<()> {
        BtDesc::decode(sm_desc)?.tree.destroy(services)
    }

    fn storage_files(&self, sm_desc: &[u8]) -> Vec<dmx_types::FileId> {
        BtDesc::decode(sm_desc)
            .map(|d| vec![d.tree.file])
            .unwrap_or_default()
    }

    fn insert(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        record: &Record,
    ) -> Result<RecordKey> {
        let d = Self::desc(rd)?;
        let key = Self::record_key(&d, record)?;
        let tree = d.tree.open(ctx.services());
        // Record X, then the gap the key splits, *before* the presence
        // check: a writer that deleted the key holds its X until it ends,
        // and if it aborts, its undo restores the record this insert must
        // then refuse. The DML layer re-locks the key after this call
        // returns; that is a re-grant.
        lock_write_gaps(ctx, rd.id, &tree, Some(&key), key.as_bytes(), false)?;
        if tree.get(key.as_bytes())?.is_some() {
            return Err(Self::duplicate(&key));
        }
        let (ext, after) = (ExtKind::Storage(rd.sm), record.encode());
        write_tree(ctx, ext, rd.id, d.tree, key.as_bytes(), None, Some(&after))?;
        Ok(key)
    }

    fn update(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        new: &Record,
    ) -> Result<(Record, RecordKey)> {
        let d = Self::desc(rd)?;
        let tree = d.tree.open(ctx.services());
        let old_bytes = tree
            .get(key.as_bytes())?
            .ok_or_else(|| DmxError::NotFound(format!("btree record {key:?}")))?;
        let old = Record::decode(&old_bytes)?;
        let new_key = Self::record_key(&d, new)?;
        let new_bytes = new.encode();
        let ext = ExtKind::Storage(rd.sm);
        if new_key == *key {
            let (before, after) = (Some(old_bytes.as_slice()), Some(new_bytes.as_slice()));
            write_tree(ctx, ext, rd.id, d.tree, key.as_bytes(), before, after)?;
            return Ok((old, new_key));
        }
        // Key fields changed: the record moves ("the old record and record
        // key will be used to determine which key to delete … and the new
        // record and record key … inserted"). The relocation deletes the
        // old key (merging its gap into its successor's) and inserts the
        // new one (splitting a gap). The destination key's record X comes
        // ahead of every gap and ahead of its presence check (see
        // `insert`); the old key's record X is already held by the DML
        // layer, and its post-return lock is a re-grant.
        lock_write_gaps(ctx, rd.id, &tree, Some(&new_key), key.as_bytes(), true)?;
        lock_write_gaps(ctx, rd.id, &tree, None, new_key.as_bytes(), false)?;
        if tree.get(new_key.as_bytes())?.is_some() {
            return Err(Self::duplicate(&new_key));
        }
        let (from, to) = (key.as_bytes(), new_key.as_bytes());
        write_tree(ctx, ext, rd.id, d.tree, from, Some(&old_bytes), None)?;
        write_tree(ctx, ext, rd.id, d.tree, to, None, Some(&new_bytes))?;
        Ok((old, new_key))
    }

    fn delete(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
    ) -> Result<Record> {
        let d = Self::desc(rd)?;
        let tree = d.tree.open(ctx.services());
        let old_bytes = tree
            .get(key.as_bytes())?
            .ok_or_else(|| DmxError::NotFound(format!("btree record {key:?}")))?;
        lock_write_gaps(ctx, rd.id, &tree, None, key.as_bytes(), true)?;
        let (ext, before) = (ExtKind::Storage(rd.sm), Some(old_bytes.as_slice()));
        write_tree(ctx, ext, rd.id, d.tree, key.as_bytes(), before, None)?;
        Record::decode(&old_bytes)
    }

    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        key: &RecordKey,
        fields: Option<&[FieldId]>,
        pred: Option<&Expr>,
    ) -> Result<Option<Vec<Value>>> {
        let d = Self::desc(rd)?;
        let tree = d.tree.open(ctx.services());
        let Some(bytes) = tree.get(key.as_bytes())? else {
            return Ok(None);
        };
        filter_project(ctx, &bytes, fields, pred)
    }

    fn open_scan(
        &self,
        ctx: &ExecCtx<'_>,
        rd: &RelationDescriptor,
        range: KeyRange,
        pred: Option<Expr>,
        fields: Option<Vec<FieldId>>,
    ) -> Result<Box<dyn ScanOps>> {
        let d = Self::desc(rd)?;
        let tree = d.tree.open(ctx.services());
        Ok(Box::new(TreeScan::new(
            &tree,
            range,
            rd.id,
            BtEntries { pred, fields },
        )))
    }

    fn estimate(&self, rd: &RelationDescriptor, preds: &[Expr]) -> PathChoice {
        let d = match Self::desc(rd) {
            Ok(d) => d,
            Err(_) => return PathChoice::full_scan(AccessPath::StorageMethod, 1, 0),
        };
        let pages = rd.stats.pages().max(rd.stats.records() / 40 + 1);
        let records = rd.stats.records();
        let ts = rd.stats.table_stats();
        // Recognize a sargable constraint on the leading key field: the
        // tree then serves a range rather than a full scan.
        let sargs = preds
            .iter()
            .filter_map(analyze::sargable)
            .filter(|s| s.field == d.key_fields[0])
            .collect::<Vec<_>>();
        let cost = Cost::new(pages as f64, records as f64);
        let mut choice = scan_estimate(rd, preds, records, cost);
        choice.ordering = Some(d.key_fields.clone());
        if let Some(s) = sargs.first() {
            let height = (records.max(2) as f64).log2() / 7.0 + 1.0; // ~fan-out 128
                                                                     // Key-range fraction: maintained statistics when published,
                                                                     // structural guesses (unique probe / one-third) otherwise.
            let stat_frac = dmx_expr::sarg_fraction(s.field, &s.op, ts.as_deref());
            let (frac, query) = match &s.op {
                SargOp::Eq(v) => (
                    stat_frac.unwrap_or(1.0 / records.max(1) as f64),
                    AccessQuery::Range(eq_prefix_range(v)),
                ),
                SargOp::Range(op, v) => {
                    let r = range_for(*op, v);
                    (stat_frac.unwrap_or(1.0 / 3.0), AccessQuery::Range(r))
                }
                _ => (1.0, AccessQuery::All),
            };
            let leaf_pages = (pages as f64 * frac).ceil();
            choice.query = query;
            choice.cost = Cost::new(height + leaf_pages, records as f64 * frac);
            // overall output is bounded by both the key-range fraction and
            // the residual predicate selectivity
            choice.rows_out = choice.rows_out.min(records as f64 * frac);
        }
        choice
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

    fn scan_ordering(&self, rd: &RelationDescriptor) -> Option<Vec<FieldId>> {
        Self::desc(rd).ok().map(|d| d.key_fields)
    }
}

/// Builds the key range `[enc(v), enc(v) + 0xFF…)` matching all composite
/// keys whose leading field equals `v`.
fn eq_prefix_range(v: &Value) -> KeyRange {
    let lo = encode_values(std::slice::from_ref(v));
    let mut hi = lo.clone();
    hi.push(0xFF);
    KeyRange {
        lo: Bound::Included(lo),
        hi: Bound::Excluded(hi),
    }
}

fn range_for(op: CmpOp, v: &Value) -> KeyRange {
    let enc = encode_values(std::slice::from_ref(v));
    let mut after = enc.clone();
    after.push(0xFF);
    match op {
        CmpOp::Lt => KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(enc),
        },
        CmpOp::Le => KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(after),
        },
        CmpOp::Gt => KeyRange {
            lo: Bound::Included(after),
            hi: Bound::Unbounded,
        },
        CmpOp::Ge => KeyRange {
            lo: Bound::Included(enc),
            hi: Bound::Unbounded,
        },
        CmpOp::Eq | CmpOp::Ne => KeyRange::all(),
    }
}

/// Btree-SM entries: `record key → encoded record`, filtered and
/// projected in place.
struct BtEntries {
    pred: Option<Expr>,
    fields: Option<Vec<FieldId>>,
}

impl TreeEntries for BtEntries {
    fn item(&self, ctx: &ExecCtx<'_>, key: Vec<u8>, bytes: Vec<u8>) -> Result<Option<ScanItem>> {
        Ok(
            filter_project(ctx, &bytes, self.fields.as_deref(), self.pred.as_ref())?.map(
                |values| ScanItem {
                    key: RecordKey::new(key),
                    values: Some(values),
                },
            ),
        )
    }

    fn gap_lockable(&self) -> bool {
        true
    }

    fn supports_versioned_read(&self) -> bool {
        true
    }

    fn item_from_version(
        &self,
        ctx: &ExecCtx<'_>,
        range: &KeyRange,
        key: &RecordKey,
        values: &[Value],
    ) -> Result<Option<ScanItem>> {
        // Version-sourced items (the snapshot delta sweep in particular)
        // are not pre-filtered by the tree traversal: re-check bounds.
        if !range.contains(key.as_bytes()) {
            return Ok(None);
        }
        if let Some(p) = &self.pred {
            if !ctx.eval_predicate(p, &values)? {
                return Ok(None);
            }
        }
        Ok(Some(ScanItem {
            key: key.clone(),
            values: Some(project_values(values, self.fields.as_deref())?),
        }))
    }
}
