//! Operations, the answers the model expects from them, and the effects
//! a completed operation has on the model.

use std::collections::BTreeMap;

use starburst_dmx::prelude::Value;

/// Operation classes across all workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `oltp_keyed`: point read by key.
    Read,
    /// `oltp_keyed`: keyed balance update.
    Update,
    /// `oltp_keyed`: insert into the indexed history heap.
    Insert,
    /// `oltp_keyed`: 100-key range sum.
    Range,
    /// `report_cold`: filtered COUNT scan.
    Count,
    /// `report_cold`: GROUP BY SUM scan.
    GroupSum,
    /// `report_cold`: LIKE scan.
    Like,
    /// `report_cold`: index-equality aggregate.
    IndexEq,
    /// `report_cold`: index-range fetch.
    IndexRange,
    /// `ingest_attached`: 100-row INSERT.
    Ingest,
    /// `ingest_attached`: a checkpoint (`BufferPool::flush_all`), not SQL.
    Checkpoint,
}

impl Class {
    /// Everything but the checkpoint: what throughput, latency and the
    /// per-operation ratios count.
    pub fn is_statement(self) -> bool {
        self != Class::Checkpoint
    }

    pub fn is_select(self) -> bool {
        !matches!(
            self,
            Class::Update | Class::Insert | Class::Ingest | Class::Checkpoint
        )
    }

    /// Queries answered through a B-tree (the key of `acct`, or the
    /// index on `events.dev`): the denominator of `btree.pages_per_probe`.
    pub fn uses_btree(self) -> bool {
        matches!(
            self,
            Class::Read | Class::Range | Class::IndexEq | Class::IndexRange
        )
    }

    pub fn is_scan(self) -> bool {
        matches!(self, Class::Count | Class::GroupSum | Class::Like)
    }
}

/// What a correct engine answers.
#[derive(Clone, Debug)]
pub enum Check {
    /// A SELECT whose rows, in any order, are exactly these.
    Rows(Vec<Vec<Value>>),
    /// A SELECT returning one row whose first value is not NULL (the
    /// answer itself depends on concurrent writers).
    OneRow,
    /// DML reporting this many affected rows.
    Affected(i64),
    /// DML carrying a row an attachment must veto; the statement fails
    /// and leaves nothing behind.
    Veto,
    /// Nothing to check beyond success.
    Succeeds,
}

/// What a completed operation changes in the model.
#[derive(Clone, Debug)]
pub enum Effect {
    None,
    /// `oltp_keyed`: a balance moved by this delta.
    Bal(i64),
    /// `oltp_keyed`: one more `hist` row.
    Hist,
    /// `ingest_attached`: these `(dev, amt)` rows, of this many user
    /// bytes, were inserted.
    Rows {
        rows: Vec<(i64, i64)>,
        bytes: u64,
    },
}

#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub sql: String,
    pub check: Check,
    pub effect: Effect,
}

/// The model-side sum of every completed operation's effect.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    pub bal_delta: i64,
    pub hist_rows: i64,
    /// Rows inserted by `ingest_attached`, with their user bytes.
    pub rows: i64,
    pub row_bytes: u64,
    /// `dev -> (count, SUM(amt))` of inserted rows.
    pub by_dev: BTreeMap<i64, (i64, i64)>,
    /// Statements vetoed as the model predicted.
    pub vetoes: u64,
}

impl Tally {
    pub fn apply(&mut self, e: &Effect) {
        match e {
            Effect::None => {}
            Effect::Bal(d) => self.bal_delta += d,
            Effect::Hist => self.hist_rows += 1,
            Effect::Rows { rows, bytes } => {
                self.rows += rows.len() as i64;
                self.row_bytes += bytes;
                for &(dev, amt) in rows {
                    let cell = self.by_dev.entry(dev).or_default();
                    cell.0 += 1;
                    cell.1 += amt;
                }
            }
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.bal_delta += o.bal_delta;
        self.hist_rows += o.hist_rows;
        self.rows += o.rows;
        self.row_bytes += o.row_bytes;
        for (dev, (c, s)) in &o.by_dev {
            let cell = self.by_dev.entry(*dev).or_default();
            cell.0 += c;
            cell.1 += s;
        }
        self.vetoes += o.vetoes;
    }
}
