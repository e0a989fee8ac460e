//! The one logged B-tree write shared by every tree-backed extension.
//!
//! Every B-tree-backed storage method and attachment changes its tree
//! the same way: key K goes from state *before* to state *after*, where
//! either state may be absent (an insert has no before, a delete no
//! after). [`write_tree`] logs that change as one extension operation,
//! `TreeRef ∥ key ∥ before ∥ after`, and only then installs *after*
//! with the record's LSN stamped onto every page it dirties, so the
//! change can never reach disk ahead of its log record. Undo installs
//! *before* ([`undo_tree_write`]), redo installs *after*
//! ([`redo_tree_write`]). Installing a full image is idempotent, so both
//! directions are safe no matter how much of the change reached disk.
//!
//! The write never reads the tree: the caller passes the *before* it
//! already knows (the bytes it read to decide the write, or `None` for
//! an insert whose key it knows is absent). The payload names its tree
//! through [`TreeRef`], so undo and redo need no catalog lookup and no
//! instance descriptor.

use std::sync::Arc;

use dmx_btree::{BTree, OnDuplicate};
use dmx_types::bytes::{le_u16, le_u32};
use dmx_types::{DmxError, FileId, Lsn, PageId, RelationId, Result};
use dmx_wal::ExtKind;

use crate::context::ExecCtx;
use crate::services::CommonServices;

/// The extension op code of a [`write_tree`] log record.
pub const OP_TREE_WRITE: u8 = 16;

/// The 8-byte handle naming one tree: its file and its root page, whose
/// number is fixed for the life of the tree. Descriptors embed it as
/// `file ∥ root_page`, both little-endian `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeRef {
    pub file: FileId,
    pub root_page: u32,
}

impl TreeRef {
    /// Encoded size in bytes.
    pub const LEN: usize = 8;

    /// Creates a new file holding an empty B-tree.
    pub fn create(services: &CommonServices) -> Result<TreeRef> {
        let file = services.disk.create_file()?;
        let tree = BTree::create(&services.pool, file, &services.latches)?;
        Ok(TreeRef {
            file,
            root_page: tree.root().page_no,
        })
    }

    /// A handle on the B-tree this reference names.
    pub fn open(&self, services: &CommonServices) -> BTree {
        BTree::open(&services.pool, self.root(), &services.latches)
    }

    /// The root page id.
    pub fn root(&self) -> PageId {
        PageId::new(self.file, self.root_page)
    }

    /// Drops the tree's latch, cached pages and file.
    pub fn destroy(&self, services: &CommonServices) -> Result<()> {
        services.latches.forget(self.root());
        services.pool.discard_file(self.file);
        services.disk.delete_file(self.file)
    }

    /// Appends the 8-byte encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.file.0.to_le_bytes());
        out.extend_from_slice(&self.root_page.to_le_bytes());
    }

    /// Reads the 8-byte encoding at `off` of `b`.
    pub fn decode_at(b: &[u8], off: usize) -> Result<TreeRef> {
        let read = |at| le_u32(b, at).ok_or_else(|| DmxError::Corrupt("short tree ref".into()));
        Ok(TreeRef {
            file: FileId(read(off)?),
            root_page: read(off + 4)?,
        })
    }
}

/// One logged tree write, as its log payload holds it:
/// `TreeRef ∥ u16 len ∥ key ∥ image(before) ∥ image(after)`, where an
/// image is `[0]` (absent) or `[1] ∥ u16 len ∥ bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeWrite<'a> {
    pub tree: TreeRef,
    pub key: &'a [u8],
    pub before: Option<&'a [u8]>,
    pub after: Option<&'a [u8]>,
}

impl<'a> TreeWrite<'a> {
    /// The log payload. Lengths must fit in a `u16` ([`write_tree`]
    /// checks before it logs).
    pub fn encode(&self) -> Vec<u8> {
        let image_len = |i: Option<&[u8]>| i.map_or(1, |b| 3 + b.len());
        let mut v = Vec::with_capacity(
            TreeRef::LEN + 2 + self.key.len() + image_len(self.before) + image_len(self.after),
        );
        self.tree.encode_into(&mut v);
        v.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        v.extend_from_slice(self.key);
        for image in [self.before, self.after] {
            match image {
                None => v.push(0),
                Some(b) => {
                    v.push(1);
                    v.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    v.extend_from_slice(b);
                }
            }
        }
        v
    }

    /// Parses a payload written by [`TreeWrite::encode`]; a short,
    /// overlong or mis-tagged payload is `Corrupt`.
    pub fn decode(p: &'a [u8]) -> Result<TreeWrite<'a>> {
        let corrupt = || DmxError::Corrupt("bad tree-write payload".into());
        let tree = TreeRef::decode_at(p, 0)?;
        let mut off = TreeRef::LEN;
        let bytes = move |off: &mut usize| -> Result<&'a [u8]> {
            let len = le_u16(p, *off).ok_or_else(corrupt)? as usize;
            let b = p.get(*off + 2..*off + 2 + len).ok_or_else(corrupt)?;
            *off += 2 + len;
            Ok(b)
        };
        let key = bytes(&mut off)?;
        let mut images = [None, None];
        for image in &mut images {
            let tag = *p.get(off).ok_or_else(corrupt)?;
            off += 1;
            *image = match tag {
                0 => None,
                1 => Some(bytes(&mut off)?),
                _ => return Err(corrupt()),
            };
        }
        if off != p.len() {
            return Err(corrupt());
        }
        let [before, after] = images;
        Ok(TreeWrite {
            tree,
            key,
            before,
            after,
        })
    }
}

/// Logs the change of `key` in `tree` from `before` to `after` as one
/// extension operation of `ext` on `rel`, then installs `after` with the
/// record's LSN stamped onto every page it dirties (write-ahead). The
/// tree is not read: `before` is the caller's knowledge of the current
/// state, and it is exactly what undo restores.
pub fn write_tree(
    ctx: &ExecCtx<'_>,
    ext: ExtKind,
    rel: RelationId,
    tree: TreeRef,
    key: &[u8],
    before: Option<&[u8]>,
    after: Option<&[u8]>,
) -> Result<()> {
    let fits = |b: &[u8]| b.len() <= u16::MAX as usize;
    if !(fits(key) && before.is_none_or(fits) && after.is_none_or(fits)) {
        return Err(DmxError::InvalidArg("tree write exceeds 64 KiB".into()));
    }
    let w = TreeWrite {
        tree,
        key,
        before,
        after,
    };
    let lsn = ctx.log_ext_op(ext, rel, OP_TREE_WRITE, w.encode());
    install_tree_image(ctx.services(), tree, lsn, key, after)
}

/// Undoes a [`write_tree`] record: installs its *before* image and
/// returns it.
pub fn undo_tree_write<'p>(
    services: &Arc<CommonServices>,
    lsn: Lsn,
    op: u8,
    payload: &'p [u8],
) -> Result<Option<&'p [u8]>> {
    let w = decode_op(op, payload)?;
    install_tree_image(services, w.tree, lsn, w.key, w.before)?;
    Ok(w.before)
}

/// Redoes a [`write_tree`] record: installs its *after* image and
/// returns it.
pub fn redo_tree_write<'p>(
    services: &Arc<CommonServices>,
    lsn: Lsn,
    op: u8,
    payload: &'p [u8],
) -> Result<Option<&'p [u8]>> {
    let w = decode_op(op, payload)?;
    install_tree_image(services, w.tree, lsn, w.key, w.after)?;
    Ok(w.after)
}

fn decode_op(op: u8, payload: &[u8]) -> Result<TreeWrite<'_>> {
    if op != OP_TREE_WRITE {
        return Err(DmxError::Corrupt(format!("bad tree-write op {op}")));
    }
    TreeWrite::decode(payload)
}

/// Makes `key`'s state in `tree` equal `image` (absent = no entry),
/// stamping every dirtied page with `lsn`. Idempotent.
fn install_tree_image(
    services: &CommonServices,
    tree: TreeRef,
    lsn: Lsn,
    key: &[u8],
    image: Option<&[u8]>,
) -> Result<()> {
    let stamped = tree.open(services).with_wal_lsn(lsn);
    match image {
        None => {
            stamped.delete(key)?;
        }
        Some(v) => stamped.insert(key, v, OnDuplicate::Replace)?,
    }
    Ok(())
}
