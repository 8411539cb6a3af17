//! Redo buffers: physical after-images destined for the log (paper §3.4).
//!
//! "Each transaction maintains a redo buffer [...] writes changes to its redo
//! buffer in the order that they occur. At commit time, the transaction
//! appends a commit record." Unlike undo records, redo records carry the
//! actual value bytes (varlen contents included) because they outlive the
//! process.
//!
//! The buffer is a byte buffer of records already serialized by
//! [`write_redo`], in the exact layout of the log, so the log manager writes
//! them as they are. This module is the one definition of that layout;
//! `mainline_wal::record` reads it with the constants below. A log is a
//! stream of length-prefixed frames:
//!
//! ```text
//! [u32 frame_len][u8 kind][payload]
//! kind 0 (Redo):        [u64 commit_ts][u32 table_id][u64 slot][u8 op]
//!                       [u16 ncols]{[u16 col][u8 has][u32 len][bytes]}*
//! kind 1 (Commit):      [u64 commit_ts]
//! kind 2 (CreateTable): [u64 commit_ts][u32 table_id][u8 transform]
//!                       [u16 len][name]
//!                       [u16 ncols]{[u8 type][u8 nullable][u16 len][name]}*
//!                       [u16 nidx]{[u16 len][name][u16 nkeys]{[u16 col]}*}*
//! kind 3 (DropTable):   [u64 commit_ts][u32 table_id][u16 len][name]
//! ```
//!
//! All integers are little-endian. `op` is [`OP_INSERT`], [`OP_UPDATE`] or
//! [`OP_DELETE`]; a NULL column has `has = 0` and `len = 0`, a fixed column
//! carries its `attr_size` bytes, a varlen column the whole value. A running
//! transaction does not know its commit timestamp yet, so its frames carry
//! zero there until [`stamp`] writes it at [`COMMIT_TS_OFFSET`].

use mainline_common::Timestamp;
use mainline_storage::TupleSlot;

/// Bytes of the `frame_len` prefix; `frame_len` counts what follows it.
pub const LEN_BYTES: usize = 4;
/// Frame kind: one replayable row operation.
pub const KIND_REDO: u8 = 0;
/// Frame kind: a transaction's commit marker.
pub const KIND_COMMIT: u8 = 1;
/// Frame kind: logical `CREATE TABLE`.
pub const KIND_CREATE_TABLE: u8 = 2;
/// Frame kind: logical `DROP TABLE`.
pub const KIND_DROP_TABLE: u8 = 3;
/// Offset of the `u64 commit_ts` from the start of every frame.
pub const COMMIT_TS_OFFSET: usize = LEN_BYTES + 1;
/// Redo op: insert with the full after-image.
pub const OP_INSERT: u8 = 0;
/// Redo op: update with a partial after-image.
pub const OP_UPDATE: u8 = 1;
/// Redo op: delete (no columns).
pub const OP_DELETE: u8 = 2;

/// Start a frame of `kind` at the end of `out`, up to and including its
/// commit timestamp. Returns the frame's start for [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>, kind: u8, commit_ts: Timestamp) -> usize {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes()); // frame_len, patched by end_frame
    out.push(kind);
    out.extend_from_slice(&commit_ts.0.to_le_bytes());
    start
}

/// Close the frame begun at `start` by writing its length.
pub fn end_frame(out: &mut [u8], start: usize) {
    let len = u32::try_from(out.len() - start - LEN_BYTES).expect("log frame over 4 GiB");
    out[start..start + LEN_BYTES].copy_from_slice(&len.to_le_bytes());
}

/// Write `commit_ts` into every frame of `frames` (whole frames, as
/// [`write_redo`] appends them).
pub fn stamp(frames: &mut [u8], commit_ts: Timestamp) {
    let ts = commit_ts.0.to_le_bytes();
    let mut pos = 0;
    while pos < frames.len() {
        let len_bytes = frames[pos..pos + LEN_BYTES].try_into().expect("a 4-byte slice");
        let len = u32::from_le_bytes(len_bytes) as usize;
        frames[pos + COMMIT_TS_OFFSET..pos + COMMIT_TS_OFFSET + 8].copy_from_slice(&ts);
        pos += LEN_BYTES + len;
    }
}

/// Append one redo frame of `op` to `out`, with a zero commit timestamp.
/// `cols` is the after-image: `(storage column, value bytes or None for
/// NULL)`, as `ProjectedRow::value_bytes` yields them (none for a delete).
/// A transaction's redo buffer is a run of these frames.
pub fn write_redo<'v>(
    out: &mut Vec<u8>,
    op: u8,
    table_id: u32,
    slot: TupleSlot,
    cols: impl IntoIterator<Item = (u16, Option<&'v [u8]>)>,
) {
    let start = begin_frame(out, KIND_REDO, Timestamp::ZERO);
    out.extend_from_slice(&table_id.to_le_bytes());
    out.extend_from_slice(&slot.raw().to_le_bytes());
    out.push(op);
    let ncols_at = out.len();
    out.extend_from_slice(&0u16.to_le_bytes());
    let mut ncols = 0u16;
    for (col, value) in cols {
        out.extend_from_slice(&col.to_le_bytes());
        let bytes = value.unwrap_or_default();
        out.push(value.is_some() as u8);
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
        ncols += 1;
    }
    out[ncols_at..ncols_at + 2].copy_from_slice(&ncols.to_le_bytes());
    end_frame(out, start);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_append_in_order_and_stamp() {
        let mut b = Vec::new();
        let slot = TupleSlot::from_raw(1 << 20);
        write_redo(&mut b, OP_INSERT, 1, slot, [(1, Some(&[1u8, 2][..])), (2, None)]);
        let first = b.len();
        // len, kind, ts, table, slot, op, ncols, 2 × (col, has, len) + 2 bytes
        assert_eq!(first, 4 + 1 + 8 + 4 + 8 + 1 + 2 + 2 * (2 + 1 + 4) + 2);
        assert_eq!(b[4], KIND_REDO);
        assert_eq!(b[4 + 1 + 8 + 4 + 8], OP_INSERT);
        write_redo(&mut b, OP_DELETE, 1, slot, []);
        assert_eq!(b[first + 4 + 1 + 8 + 4 + 8], OP_DELETE);

        let mut frames = b;
        stamp(&mut frames, Timestamp(0x0102_0304));
        for start in [0, first] {
            let ts = &frames[start + COMMIT_TS_OFFSET..start + COMMIT_TS_OFFSET + 8];
            assert_eq!(ts, &0x0102_0304u64.to_le_bytes());
        }
    }
}
