//! The on-disk log: commit and logical DDL frame encoders, and the reader.
//! The frame layout is defined in [`mainline_txn::redo`], where transactions
//! write their redo frames in place. A transaction's frames precede its
//! commit frame; recovery ignores transactions whose commit frame never made
//! it to disk (§3.4 crash rule). DDL frames are *logical*, so a replayer can
//! recreate a table no checkpoint knows about.

use mainline_common::value::TypeId;
use mainline_common::{Error, Result, Timestamp};
use mainline_storage::TupleSlot;
use mainline_txn::redo::{
    begin_frame, end_frame, KIND_COMMIT, KIND_CREATE_TABLE, KIND_DROP_TABLE, KIND_REDO, LEN_BYTES,
    OP_DELETE,
};
use mainline_txn::{CreateTableDdl, IndexDef};

/// Parsed log entry payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload<'a> {
    /// One replayable operation, borrowed from the log bytes.
    Redo(RedoView<'a>),
    /// Transaction commit marker.
    Commit,
    /// Logical `CREATE TABLE`.
    CreateTable(CreateTableDdl),
    /// Logical `DROP TABLE`.
    DropTable {
        /// Catalog id of the dropped table.
        table_id: u32,
        /// Catalog name of the dropped table.
        name: String,
    },
}

/// A parsed log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry<'a> {
    /// Commit timestamp of the owning transaction.
    pub commit_ts: Timestamp,
    /// Payload.
    pub payload: LogPayload<'a>,
}

/// One redo frame, viewed in place. [`LogReader`] has checked its column
/// list, so iterating [`Self::cols`] cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedoView<'a> {
    /// Catalog table id.
    pub table_id: u32,
    /// The slot at the time of the operation (recovery remaps it).
    pub slot: TupleSlot,
    /// [`OP_INSERT`](mainline_txn::redo::OP_INSERT),
    /// [`OP_UPDATE`](mainline_txn::redo::OP_UPDATE) or [`OP_DELETE`].
    pub op: u8,
    ncols: u16,
    cols: &'a [u8],
}

impl<'a> RedoView<'a> {
    /// The after-image: `(storage column, value bytes or None for NULL)`.
    pub fn cols(&self) -> impl ExactSizeIterator<Item = (u16, Option<&'a [u8]>)> {
        let mut c = Cursor { bytes: self.cols, pos: 0 };
        (0..self.ncols).map(move |_| c.column().expect("column list checked by LogReader"))
    }
}

/// Append one commit entry to `out`.
pub fn encode_commit(out: &mut Vec<u8>, commit_ts: Timestamp) {
    let start = begin_frame(out, KIND_COMMIT, commit_ts);
    end_frame(out, start);
}

fn type_code(ty: TypeId) -> u8 {
    match ty {
        TypeId::TinyInt => 0,
        TypeId::SmallInt => 1,
        TypeId::Integer => 2,
        TypeId::BigInt => 3,
        TypeId::Double => 4,
        TypeId::Varchar => 5,
    }
}

fn type_from_code(code: u8) -> Result<TypeId> {
    Ok(match code {
        0 => TypeId::TinyInt,
        1 => TypeId::SmallInt,
        2 => TypeId::Integer,
        3 => TypeId::BigInt,
        4 => TypeId::Double,
        5 => TypeId::Varchar,
        x => return Err(Error::Corrupt(format!("bad DDL type code {x}"))),
    })
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    // A silent `as u16` truncation would poison the log (frame length and
    // inner structure disagree forever after); the catalog rejects oversize
    // names before they get here, so this is a backstop, not a path.
    assert!(s.len() <= u16::MAX as usize, "name of {} bytes cannot be logged", s.len());
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append one logical `CREATE TABLE` entry to `out`.
pub fn encode_create_table(out: &mut Vec<u8>, commit_ts: Timestamp, ddl: &CreateTableDdl) {
    let start = begin_frame(out, KIND_CREATE_TABLE, commit_ts);
    out.extend_from_slice(&ddl.table_id.to_le_bytes());
    out.push(ddl.transform as u8);
    push_str(out, &ddl.name);
    out.extend_from_slice(&(ddl.columns.len() as u16).to_le_bytes());
    for c in &ddl.columns {
        out.push(type_code(c.ty));
        out.push(c.nullable as u8);
        push_str(out, &c.name);
    }
    out.extend_from_slice(&(ddl.indexes.len() as u16).to_le_bytes());
    for ix in &ddl.indexes {
        push_str(out, &ix.name);
        out.extend_from_slice(&(ix.key_cols.len() as u16).to_le_bytes());
        for &k in &ix.key_cols {
            out.extend_from_slice(&(k as u16).to_le_bytes());
        }
    }
    end_frame(out, start);
}

/// Append one logical `DROP TABLE` entry to `out`.
pub fn encode_drop_table(out: &mut Vec<u8>, commit_ts: Timestamp, table_id: u32, name: &str) {
    let start = begin_frame(out, KIND_DROP_TABLE, commit_ts);
    out.extend_from_slice(&table_id.to_le_bytes());
    push_str(out, name);
    end_frame(out, start);
}

/// Streaming decoder over a byte slice. Stops cleanly at a truncated tail
/// (the crash case: a partially written frame is ignored).
pub struct LogReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LogReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        LogReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Next entry; `Ok(None)` at end-of-log (including a truncated tail).
    pub fn next_entry(&mut self) -> Result<Option<LogEntry<'a>>> {
        let save = self.pos;
        let Some(len_bytes) = self.take(LEN_BYTES) else { return Ok(None) };
        let frame_len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        let Some(frame) = self.take(frame_len) else {
            // Torn tail write: pretend the log ends here.
            self.pos = save;
            return Ok(None);
        };
        let mut c = Cursor { bytes: frame, pos: 0 };
        let kind = c.u8()?;
        match kind {
            KIND_REDO => {
                let commit_ts = Timestamp(c.u64()?);
                let table_id = c.u32()?;
                let slot = TupleSlot::from_raw(c.u64()?);
                let op = c.u8()?;
                if op > OP_DELETE {
                    return Err(Error::Corrupt(format!("bad op code {op}")));
                }
                let ncols = c.u16()?;
                let cols_at = c.pos;
                for _ in 0..ncols {
                    c.column()?;
                }
                let cols = &frame[cols_at..c.pos];
                let view = RedoView { table_id, slot, op, ncols, cols };
                Ok(Some(LogEntry { commit_ts, payload: LogPayload::Redo(view) }))
            }
            KIND_COMMIT => {
                let commit_ts = Timestamp(c.u64()?);
                Ok(Some(LogEntry { commit_ts, payload: LogPayload::Commit }))
            }
            KIND_CREATE_TABLE => {
                let commit_ts = Timestamp(c.u64()?);
                let table_id = c.u32()?;
                let transform = c.u8()? != 0;
                let name = c.string()?;
                let ncols = c.u16()? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let ty = type_from_code(c.u8()?)?;
                    let nullable = c.u8()? != 0;
                    let col_name = c.string()?;
                    columns.push(mainline_common::schema::ColumnDef {
                        name: col_name,
                        ty,
                        nullable,
                    });
                }
                let nidx = c.u16()? as usize;
                let mut indexes = Vec::with_capacity(nidx);
                for _ in 0..nidx {
                    let ix_name = c.string()?;
                    let nkeys = c.u16()? as usize;
                    let mut key_cols = Vec::with_capacity(nkeys);
                    for _ in 0..nkeys {
                        key_cols.push(c.u16()? as usize);
                    }
                    indexes.push(IndexDef { name: ix_name, key_cols });
                }
                Ok(Some(LogEntry {
                    commit_ts,
                    payload: LogPayload::CreateTable(CreateTableDdl {
                        table_id,
                        name,
                        transform,
                        columns,
                        indexes,
                    }),
                }))
            }
            KIND_DROP_TABLE => {
                let commit_ts = Timestamp(c.u64()?);
                let table_id = c.u32()?;
                let name = c.string()?;
                Ok(Some(LogEntry { commit_ts, payload: LogPayload::DropTable { table_id, name } }))
            }
            x => Err(Error::Corrupt(format!("bad log entry kind {x}"))),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(Error::Corrupt("truncated log frame".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// One `[u16 col][u8 has][u32 len][bytes]` column of a redo frame.
    fn column(&mut self) -> Result<(u16, Option<&'a [u8]>)> {
        let col = self.u16()?;
        let has = self.u8()? != 0;
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        Ok((col, has.then_some(bytes)))
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("non-UTF-8 name in DDL record".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::Value;
    use mainline_storage::{BlockLayout, ProjectedRow};
    use mainline_txn::redo::{stamp, write_redo, OP_INSERT, OP_UPDATE};

    fn sample_slot() -> TupleSlot {
        TupleSlot::from_raw((9 << 20) | 17)
    }

    const SAMPLE_COLS: [(u16, Option<&[u8]>); 2] = [(1, Some(&[1, 2, 3])), (2, None)];

    /// One stamped insert frame of [`SAMPLE_COLS`] (the log manager's job).
    fn sample_redo(ts: u64) -> Vec<u8> {
        let mut frames = Vec::new();
        write_redo(&mut frames, OP_INSERT, 3, sample_slot(), SAMPLE_COLS);
        stamp(&mut frames, Timestamp(ts));
        frames
    }

    fn redo_of<'a>(e: &LogEntry<'a>) -> RedoView<'a> {
        match e.payload {
            LogPayload::Redo(v) => v,
            ref p => panic!("expected a redo frame, got {p:?}"),
        }
    }

    #[test]
    fn roundtrip_mixed_entries() {
        let mut log = sample_redo(5);
        let mut delete = Vec::new();
        write_redo(&mut delete, OP_DELETE, 3, TupleSlot::from_raw(9 << 20), []);
        stamp(&mut delete, Timestamp(5));
        log.extend_from_slice(&delete);
        encode_commit(&mut log, Timestamp(5));

        let mut r = LogReader::new(&log);
        let e1 = r.next_entry().unwrap().unwrap();
        assert_eq!(e1.commit_ts, Timestamp(5));
        let v1 = redo_of(&e1);
        assert_eq!((v1.table_id, v1.slot, v1.op), (3, sample_slot(), OP_INSERT));
        assert_eq!(v1.cols().collect::<Vec<_>>(), SAMPLE_COLS);
        let e2 = r.next_entry().unwrap().unwrap();
        assert!(matches!(e2.payload, LogPayload::Redo(RedoView { op: OP_DELETE, .. })));
        let e3 = r.next_entry().unwrap().unwrap();
        assert_eq!(e3.payload, LogPayload::Commit);
        assert!(r.next_entry().unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let mut log = sample_redo(1);
        encode_commit(&mut log, Timestamp(1));
        let full_len = log.len();
        log.extend_from_slice(&sample_redo(2));
        // Simulate a crash mid-write: cut inside the last frame.
        let torn = &log[..full_len + 7];
        let mut r = LogReader::new(torn);
        assert!(r.next_entry().unwrap().is_some());
        assert!(r.next_entry().unwrap().is_some());
        assert!(r.next_entry().unwrap().is_none());
    }

    #[test]
    fn corrupt_kind_rejected() {
        let mut log = Vec::new();
        encode_commit(&mut log, Timestamp(1));
        log[4] = 99; // clobber the kind byte
        let mut r = LogReader::new(&log);
        assert!(r.next_entry().is_err());
    }

    #[test]
    fn corrupt_redo_frame_rejected() {
        // A column length running past the frame end.
        let mut log = sample_redo(1);
        let first_len_at = 4 + 1 + 8 + 4 + 8 + 1 + 2 + 2 + 1;
        log[first_len_at] = 200;
        assert!(LogReader::new(&log).next_entry().is_err());
        // An op code past OP_DELETE.
        let mut log = sample_redo(1);
        log[4 + 1 + 8 + 4 + 8] = 7;
        assert!(LogReader::new(&log).next_entry().is_err());
    }

    #[test]
    fn ddl_roundtrip() {
        let ddl = CreateTableDdl {
            table_id: 42,
            name: "orders with spaces".into(),
            transform: true,
            columns: vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("note", TypeId::Varchar),
                ColumnDef::new("score", TypeId::Double),
            ],
            indexes: vec![
                IndexDef { name: "pk".into(), key_cols: vec![0] },
                IndexDef { name: "by_note".into(), key_cols: vec![1, 2] },
            ],
        };
        let mut log = Vec::new();
        encode_create_table(&mut log, Timestamp(7), &ddl);
        encode_commit(&mut log, Timestamp(7));
        encode_drop_table(&mut log, Timestamp(9), 42, "orders with spaces");
        encode_commit(&mut log, Timestamp(9));

        let mut r = LogReader::new(&log);
        let e = r.next_entry().unwrap().unwrap();
        assert_eq!(e.commit_ts, Timestamp(7));
        assert_eq!(e.payload, LogPayload::CreateTable(ddl));
        assert_eq!(r.next_entry().unwrap().unwrap().payload, LogPayload::Commit);
        let e = r.next_entry().unwrap().unwrap();
        assert_eq!(e.commit_ts, Timestamp(9));
        assert_eq!(
            e.payload,
            LogPayload::DropTable { table_id: 42, name: "orders with spaces".into() }
        );
        assert_eq!(r.next_entry().unwrap().unwrap().payload, LogPayload::Commit);
        assert!(r.next_entry().unwrap().is_none());

        // A torn DDL tail is ignored like any other frame.
        let mut torn = Vec::new();
        encode_commit(&mut torn, Timestamp(1));
        let keep = torn.len();
        encode_create_table(&mut torn, Timestamp(2), &sample_ddl());
        let mut r = LogReader::new(&torn[..keep + 9]);
        assert!(r.next_entry().unwrap().is_some());
        assert!(r.next_entry().unwrap().is_none());
    }

    fn sample_ddl() -> CreateTableDdl {
        CreateTableDdl {
            table_id: 1,
            name: "t".into(),
            transform: false,
            columns: vec![ColumnDef::new("id", TypeId::BigInt)],
            indexes: vec![],
        }
    }

    #[test]
    fn update_roundtrip() {
        let mut log = Vec::new();
        let cols = [(4, Some(&b"new-value"[..]))];
        write_redo(&mut log, OP_UPDATE, 1, TupleSlot::from_raw(1 << 20), cols);
        stamp(&mut log, Timestamp(9));
        let mut r = LogReader::new(&log);
        let e = r.next_entry().unwrap().unwrap();
        assert_eq!(e.commit_ts, Timestamp(9));
        let v = redo_of(&e);
        assert_eq!((v.table_id, v.slot, v.op), (1, TupleSlot::from_raw(1 << 20), OP_UPDATE));
        assert_eq!(v.cols().collect::<Vec<_>>(), cols);
    }

    /// The log format, byte for byte: an insert written from a
    /// `ProjectedRow` (fixed, inline varlen, heap varlen and NULL columns),
    /// an update, a delete and a commit, stamped and then decoded.
    #[test]
    fn golden_bytes() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", TypeId::BigInt),
            ColumnDef::new("inline", TypeId::Varchar),
            ColumnDef::new("heap", TypeId::Varchar),
            ColumnDef::nullable("qty", TypeId::Integer),
        ]);
        let layout = BlockLayout::from_schema(&schema).unwrap();
        let types: Vec<TypeId> = schema.types().collect();
        let heap = "heap-allocated value";
        let row = ProjectedRow::from_values(
            &types,
            &[Value::BigInt(7), Value::string("short"), Value::string(heap), Value::Null],
        );
        let mut delta = ProjectedRow::new();
        delta.push_fixed(4, &Value::Integer(9));
        let slot = TupleSlot::from_raw((1 << 20) | 5);

        let mut log = Vec::new();
        // SAFETY: `row` owns its heap entry until it is freed below.
        write_redo(&mut log, OP_INSERT, 3, slot, unsafe { row.value_bytes(&layout) });
        write_redo(&mut log, OP_UPDATE, 3, slot, unsafe { delta.value_bytes(&layout) });
        write_redo(&mut log, OP_DELETE, 3, slot, []);
        unsafe { row.attrs()[2].as_varlen().free_buffer() };
        stamp(&mut log, Timestamp(42));
        encode_commit(&mut log, Timestamp(42));

        const TS: [u8; 8] = [42, 0, 0, 0, 0, 0, 0, 0];
        const TABLE_SLOT: [u8; 12] = [3, 0, 0, 0, 5, 0, 0x10, 0, 0, 0, 0, 0];
        #[rustfmt::skip]
        let want: Vec<u8> = [
            // insert: len 85, kind 0, ts, table, slot, op 0, 4 columns
            &[85, 0, 0, 0, 0][..], &TS, &TABLE_SLOT, &[0, 4, 0],
            &[1, 0, 1, 8, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 1, 5, 0, 0, 0], b"short",
            &[3, 0, 1, 20, 0, 0, 0], heap.as_bytes(),
            &[4, 0, 0, 0, 0, 0, 0],
            // update: len 35, op 1, column 4 = 9
            &[35, 0, 0, 0, 0], &TS, &TABLE_SLOT, &[1, 1, 0],
            &[4, 0, 1, 4, 0, 0, 0, 9, 0, 0, 0],
            // delete: len 24, op 2, no columns
            &[24, 0, 0, 0, 0], &TS, &TABLE_SLOT, &[2, 0, 0],
            // commit: len 9, kind 1, ts
            &[9, 0, 0, 0, 1], &TS,
        ]
        .concat();
        assert_eq!(log, want);

        let mut r = LogReader::new(&log);
        let mut views = Vec::new();
        while let Some(e) = r.next_entry().unwrap() {
            assert_eq!(e.commit_ts, Timestamp(42));
            match e.payload {
                LogPayload::Redo(v) => views.push(v),
                p => assert_eq!(p, LogPayload::Commit),
            }
        }
        assert!(views.iter().all(|v| (v.table_id, v.slot) == (3, slot)));
        assert_eq!(
            views.iter().map(|v| v.op).collect::<Vec<_>>(),
            [OP_INSERT, OP_UPDATE, OP_DELETE]
        );
        let seven = 7i64.to_le_bytes();
        assert_eq!(
            views[0].cols().collect::<Vec<_>>(),
            [
                (1, Some(&seven[..])),
                (2, Some(&b"short"[..])),
                (3, Some(heap.as_bytes())),
                (4, None)
            ]
        );
        assert_eq!(views[1].cols().collect::<Vec<_>>(), [(4, Some(&9i32.to_le_bytes()[..]))]);
        assert_eq!(views[2].cols().len(), 0);
    }
}
