//! The one logged B-tree write (`dmx_core::tree`): its payload codec,
//! and undo/redo driven straight from a payload against a real tree.

// Integration-test harnesses are exempt from the runtime panic
// discipline: a broken fixture should abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use dmx_btree::OnDuplicate;
use dmx_core::{
    redo_tree_write, undo_tree_write, write_tree, CommonServices, Database, ExecCtx,
    ExtensionRegistry, TreeRef, TreeWrite, OP_TREE_WRITE,
};
use dmx_lock::LockManager;
use dmx_page::{BufferPool, MemDisk};
use dmx_types::{DmxError, FileId, Lsn, RelationId, SmTypeId};
use dmx_wal::{ExtKind, LogManager, StableLog};

fn services() -> Arc<CommonServices> {
    let disk = Arc::new(MemDisk::new());
    let pool = BufferPool::new(disk.clone(), 16);
    let log = Arc::new(LogManager::open(StableLog::new()));
    let locks = Arc::new(LockManager::new(Duration::from_secs(1)));
    CommonServices::new(disk, pool, log, locks)
}

fn write<'a>(tree: TreeRef, before: Option<&'a [u8]>, after: Option<&'a [u8]>) -> TreeWrite<'a> {
    TreeWrite {
        tree,
        key: b"k",
        before,
        after,
    }
}

const LSN: Lsn = Lsn(7);

#[test]
fn payload_roundtrips_for_every_absent_present_combination() {
    let tree = TreeRef {
        file: FileId(3),
        root_page: 9,
    };
    for (before, after) in [
        (None, None),
        (None, Some(&b"after"[..])),
        (Some(&b"before"[..]), None),
        (Some(&b"before"[..]), Some(&b""[..])),
    ] {
        let w = write(tree, before, after);
        assert_eq!(TreeWrite::decode(&w.encode()).unwrap(), w);
    }
    let mut desc = Vec::new();
    tree.encode_into(&mut desc);
    assert_eq!(desc, [3, 0, 0, 0, 9, 0, 0, 0], "file ∥ root_page layout");
    assert_eq!(TreeRef::decode_at(&desc, 0).unwrap(), tree);
}

#[test]
fn truncated_or_padded_payload_is_corrupt() {
    let tree = TreeRef {
        file: FileId(1),
        root_page: 1,
    };
    let p = write(tree, Some(b"old"), Some(b"new")).encode();
    for cut in 0..p.len() {
        assert!(
            matches!(TreeWrite::decode(&p[..cut]), Err(DmxError::Corrupt(_))),
            "cut at {cut}"
        );
    }
    let mut padded = p.clone();
    padded.push(0);
    assert!(matches!(
        TreeWrite::decode(&padded),
        Err(DmxError::Corrupt(_))
    ));
    let svc = services();
    assert!(matches!(
        undo_tree_write(&svc, LSN, OP_TREE_WRITE + 1, &p),
        Err(DmxError::Corrupt(_))
    ));
}

#[test]
fn redo_is_idempotent_and_undo_restores_before() {
    let svc = services();
    let tree = TreeRef::create(&svc).unwrap();
    let t = tree.open(&svc);
    t.insert(b"k", b"old", OnDuplicate::Error).unwrap();
    let update = write(tree, Some(b"old"), Some(b"new")).encode();
    // redo twice equals redo once
    assert_eq!(
        redo_tree_write(&svc, LSN, OP_TREE_WRITE, &update).unwrap(),
        Some(&b"new"[..])
    );
    redo_tree_write(&svc, LSN, OP_TREE_WRITE, &update).unwrap();
    assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
    // undo then redo converges on after
    assert_eq!(
        undo_tree_write(&svc, LSN, OP_TREE_WRITE, &update).unwrap(),
        Some(&b"old"[..])
    );
    assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"old"[..]));
    redo_tree_write(&svc, LSN, OP_TREE_WRITE, &update).unwrap();
    assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
    // a delete redone twice stays deleted
    let delete = write(tree, Some(b"new"), None).encode();
    redo_tree_write(&svc, LSN, OP_TREE_WRITE, &delete).unwrap();
    redo_tree_write(&svc, LSN, OP_TREE_WRITE, &delete).unwrap();
    assert_eq!(t.get(b"k").unwrap(), None);
    tree.destroy(&svc).unwrap();
}

#[test]
fn undo_of_a_write_that_never_reached_the_tree_is_a_no_op() {
    let svc = services();
    let tree = TreeRef::create(&svc).unwrap();
    let t = tree.open(&svc);
    // an insert logged but never applied: the key stays absent
    let insert = write(tree, None, Some(b"v")).encode();
    assert_eq!(
        undo_tree_write(&svc, LSN, OP_TREE_WRITE, &insert).unwrap(),
        None
    );
    assert_eq!(t.get(b"k").unwrap(), None);
    // an update logged but never applied: the old value stays
    t.insert(b"k", b"old", OnDuplicate::Error).unwrap();
    let update = write(tree, Some(b"old"), Some(b"new")).encode();
    undo_tree_write(&svc, LSN, OP_TREE_WRITE, &update).unwrap();
    assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"old"[..]));
}

#[test]
fn write_tree_logs_first_and_stamps_the_page_with_its_record() {
    let db = Database::open_fresh(ExtensionRegistry::new()).unwrap();
    let svc = db.services().clone();
    let tree = TreeRef::create(&svc).unwrap();
    let txn = db.begin();
    let ctx = ExecCtx { db: &db, txn: &txn };
    let ext = ExtKind::Storage(SmTypeId(1));
    write_tree(&ctx, ext, RelationId(1), tree, b"k", None, Some(b"v")).unwrap();
    let lsn = txn.last_lsn();
    assert!(!lsn.is_null(), "the write appended its record");
    assert_eq!(svc.pool.fetch(tree.root()).unwrap().read().lsn(), lsn);
    assert_eq!(
        tree.open(&svc).get(b"k").unwrap().as_deref(),
        Some(&b"v"[..])
    );
    // an image too long for the payload is refused before anything is logged
    let long = vec![0u8; usize::from(u16::MAX) + 1];
    assert!(write_tree(&ctx, ext, RelationId(1), tree, b"k", None, Some(&long)).is_err());
    assert_eq!(txn.last_lsn(), lsn);
}
