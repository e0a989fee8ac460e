//! The database under test: an in-memory `MemDisk` plus a stable log,
//! opened through the public `Database::open`.

use std::sync::Arc;

use starburst_dmx::page::{DiskManager, IoSnapshot, MemDisk};
use starburst_dmx::prelude::{Database, DatabaseConfig, DatabaseEnv, QueryResult, Result, Session};
use starburst_dmx::types::obs::MetricsSnapshot;
use starburst_dmx::wal::StableLog;

use crate::{err, Fallible};

pub struct Db {
    pub db: Arc<Database>,
    disk: Arc<MemDisk>,
    log: Arc<StableLog>,
}

impl Db {
    /// A fresh database with `pool_frames` buffer frames.
    pub fn fresh(pool_frames: usize) -> Result<Db> {
        Db::open(Arc::new(MemDisk::new()), StableLog::new(), pool_frames)
    }

    fn open(disk: Arc<MemDisk>, log: Arc<StableLog>, pool_frames: usize) -> Result<Db> {
        let env = DatabaseEnv {
            disk: disk.clone() as Arc<dyn DiskManager>,
            stable_log: log.clone(),
        };
        let config = DatabaseConfig {
            pool_frames,
            ..DatabaseConfig::default()
        };
        let db = starburst_dmx::open_env(env, config)?;
        Ok(Db { db, disk, log })
    }

    /// Closes cleanly (every dirty page written, the log forced) and
    /// reopens over the same disk and log with `pool_frames` frames: the
    /// new pool starts empty.
    pub fn reopen(self, pool_frames: usize) -> Result<Db> {
        self.db.services().pool.flush_all()?;
        self.db.services().log.force_all()?;
        let Db { db, disk, log } = self;
        drop(db);
        Db::open(disk, log, pool_frames)
    }

    /// Runs one autocommitted statement.
    pub fn sql(&self, sql: &str) -> Result<QueryResult> {
        Session::new(self.db.clone()).execute(sql)
    }

    /// Inserts `rows` (each a parenthesized VALUES tuple) into `table`,
    /// 100 rows per autocommitted statement.
    pub fn load(&self, table: &str, rows: impl Iterator<Item = String>) -> Fallible<()> {
        let rows: Vec<String> = rows.collect();
        for chunk in rows.chunks(100) {
            self.sql(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
                .map_err(err)?;
        }
        Ok(())
    }

    /// Counters the per-layer metrics are derived from.
    pub fn probe(&self) -> Probe {
        Probe {
            metrics: self.db.metrics_snapshot(),
            io: self.disk.stats().snapshot(),
            log_frames: self.log.len(),
        }
    }

    /// Bytes of the durable log frames `from..to`.
    pub fn log_bytes(&self, from: usize, to: usize) -> Result<u64> {
        (from..to).try_fold(0u64, |sum, i| {
            self.log.with_frame(i, |f| Ok(sum + f.len() as u64))
        })
    }
}

pub struct Probe {
    pub metrics: MetricsSnapshot,
    pub io: IoSnapshot,
    pub log_frames: usize,
}
