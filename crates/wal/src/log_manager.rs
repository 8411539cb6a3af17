//! The asynchronous log manager (paper §3.4).
//!
//! Commits land on a flush queue; a dedicated thread writes them to the
//! log file, fsyncs in groups, and then invokes the durability callbacks
//! ("we implement callbacks by embedding a function pointer in the commit
//! record; when the log manager writes the commit record, it adds that
//! pointer to a list of callbacks to invoke after the next fsync").
//!
//! The log thread also rotates the active file into archive segments (see
//! [`crate::segments`]) once it exceeds [`LogManagerConfig::segment_bytes`].
//! Rotation happens only between commit groups, so a transaction's redo
//! records and its commit marker always land in the same segment — which is
//! what lets checkpoint truncation reason per segment. Redo arrives as
//! frames ([`mainline_txn::redo`]); the thread only stamps their commit
//! timestamp, and encodes nothing but DDL and commit frames.

use crate::record::{encode_commit, encode_create_table, encode_drop_table};
use crate::segments;
use crossbeam::channel::{bounded, Receiver, Sender};
use mainline_common::{Profile, Result, Timestamp};
use mainline_txn::redo::stamp;
use mainline_txn::{CommitSink, DdlRecord};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

mainline_obs::metric_set! {
    /// What a log manager records, on its log thread.
    pub struct WalMetrics {
        commits_acked:
            Counter("wal_commits_acked", "commits acknowledged durable after a group fsync"),
        bytes_written: Counter("wal_bytes_written", "bytes written to the log, across rotations"),
        rotations: Counter("wal_rotations", "active log segments rotated into archives"),
        group_commit_txns:
            Histogram("wal_group_commit_txns", "commits acknowledged per group fsync"),
        fsync_nanos: Histogram("wal_fsync_nanos", "flush+fsync latency per commit group"),
    }
}

/// Max queued commits before producers block (backpressure).
const QUEUE_CAPACITY: usize = 4096;

/// Tuning knobs for the log manager.
#[derive(Debug, Clone)]
pub struct LogManagerConfig {
    /// Log file path (the *active* segment; archives rotate next to it).
    pub path: PathBuf,
    /// Whether to `fsync` after each group (benchmarks may disable it).
    pub fsync: bool,
    /// Rotate the active file into an archive segment once it exceeds this
    /// many bytes (checked between commit groups). Zero disables rotation —
    /// the log stays a single file, exactly the pre-segmentation behavior.
    /// [`LogManagerConfig::new`] takes the engine profile's
    /// [`wal_segment_bytes`](mainline_common::Profile::wal_segment_bytes),
    /// which CI uses to force rotation everywhere.
    pub segment_bytes: u64,
}

impl LogManagerConfig {
    /// Default configuration for a path.
    pub fn new(path: impl AsRef<Path>) -> Self {
        LogManagerConfig {
            path: path.as_ref().to_path_buf(),
            fsync: true,
            segment_bytes: Profile::current().wal_segment_bytes.unwrap_or(0),
        }
    }
}

enum Msg {
    Commit {
        commit_ts: Timestamp,
        redo: Vec<u8>,
        ddl: Vec<DdlRecord>,
        read_only: bool,
        callback: Box<dyn FnOnce() + Send>,
    },
    Flush(Sender<()>),
}

/// Handle to the background logging thread. Implements [`CommitSink`] so it
/// plugs directly into the transaction manager.
///
/// Shutdown protocol: the only `Sender` lives behind `tx`; closing is done by
/// taking it out under the write lock. The logging thread drains the channel
/// to exhaustion (`recv` only errors once the queue is empty *and* the sender
/// is gone), so a send that succeeded is always written and acked, and a
/// commit arriving after close is acked immediately on the caller's thread —
/// there is no window where an accepted callback can be lost.
pub struct LogManager {
    tx: parking_lot::RwLock<Option<Sender<Msg>>>,
    handle: parking_lot::Mutex<Option<JoinHandle<()>>>,
    metrics: Arc<WalMetrics>,
    path: PathBuf,
}

impl LogManager {
    /// Start the logging thread.
    pub fn start(config: LogManagerConfig) -> Result<Arc<LogManager>> {
        let file = OpenOptions::new().create(true).append(true).open(&config.path)?;
        let existing = file.metadata().map(|m| m.len()).unwrap_or(0);
        let next_seq =
            segments::list_segments(&config.path)?.last().map(|s| s.seq + 1).unwrap_or(1);
        let (tx, rx) = bounded::<Msg>(QUEUE_CAPACITY);
        let metrics = Arc::new(WalMetrics::default());
        let path = config.path.clone();
        let mut writer = SegmentedWriter {
            out: BufWriter::with_capacity(1 << 20, file),
            path: config.path.clone(),
            fsync: config.fsync,
            segment_bytes: config.segment_bytes,
            active_bytes: existing,
            next_seq,
            last_commit_ts: Timestamp::ZERO,
            has_commits: false,
            metrics: Arc::clone(&metrics),
        };
        let handle = std::thread::Builder::new()
            .name("log-manager".into())
            .spawn(move || run_loop(&mut writer, rx))
            .expect("spawn log manager");
        Ok(Arc::new(LogManager {
            tx: parking_lot::RwLock::new(Some(tx)),
            handle: parking_lot::Mutex::new(Some(handle)),
            metrics,
            path,
        }))
    }

    /// Block until everything queued so far is durable.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = bounded(1);
        let sent = match &*self.tx.read() {
            Some(tx) => tx.send(Msg::Flush(ack_tx)).is_ok(),
            // Already shut down: the drain-on-close made everything durable.
            None => false,
        };
        if sent {
            let _ = ack_rx.recv();
        }
    }

    /// Bytes serialized to the log so far (cumulative across rotations —
    /// the checkpoint trigger measures WAL *growth* against this counter).
    /// The read is relaxed: the count publishes no other data, and a caller
    /// that needs every queued commit counted calls [`flush`](Self::flush)
    /// first, whose channel round-trip orders the log thread's adds before
    /// this read.
    pub fn bytes_written(&self) -> u64 {
        self.metrics.bytes_written.get()
    }

    /// This log manager's metrics (the database registers them).
    pub fn metrics(&self) -> &Arc<WalMetrics> {
        &self.metrics
    }

    /// The active log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drop every archive segment wholly at or below `checkpoint_ts` (see
    /// [`segments::truncate_below`]). Call only after a checkpoint at that
    /// timestamp is durable. Returns how many segments were removed.
    pub fn truncate_below(&self, checkpoint_ts: Timestamp) -> Result<usize> {
        segments::truncate_below(&self.path, checkpoint_ts)
    }

    /// Stop the thread. Dropping the sender lets the thread drain the queue
    /// to exhaustion and sync before exiting, so nothing accepted is lost.
    pub fn shutdown(&self) {
        drop(self.tx.write().take());
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        drop(self.tx.get_mut().take());
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl CommitSink for LogManager {
    fn queue_commit(
        &self,
        commit_ts: Timestamp,
        redo: Vec<u8>,
        ddl: Vec<DdlRecord>,
        read_only: bool,
        callback: Box<dyn FnOnce() + Send>,
    ) {
        match &*self.tx.read() {
            // While we hold the read lock the sender cannot be closed, and
            // the receiver outlives the sender, so this send cannot fail
            // (it may block on backpressure, which is intended).
            Some(tx) => {
                if let Err(e) = tx.send(Msg::Commit { commit_ts, redo, ddl, read_only, callback }) {
                    if let Msg::Commit { callback, .. } = e.into_inner() {
                        callback();
                    }
                }
            }
            // Shut down: ack immediately. The data is lost, but so is the
            // process — recovery semantics are unchanged, and no committer
            // waits on durability forever.
            None => callback(),
        }
    }
}

/// The log thread's output: a buffered writer over the active file plus the
/// bookkeeping rotation needs (bytes in the active segment, last commit
/// timestamp written, next archive sequence number).
struct SegmentedWriter {
    out: BufWriter<File>,
    path: PathBuf,
    fsync: bool,
    segment_bytes: u64,
    active_bytes: u64,
    next_seq: u64,
    last_commit_ts: Timestamp,
    has_commits: bool,
    metrics: Arc<WalMetrics>,
}

impl SegmentedWriter {
    /// Write one transaction's frames, `parts` in order.
    fn write_txn(&mut self, parts: [&[u8]; 3], commit_ts: Timestamp) {
        let mut len = 0;
        for bytes in parts {
            self.out.write_all(bytes).expect("log write failed");
            len += bytes.len() as u64;
        }
        self.active_bytes += len;
        self.metrics.bytes_written.add(len);
        self.last_commit_ts = commit_ts;
        self.has_commits = true;
    }

    fn sync(&mut self) {
        let t0 = Instant::now();
        self.out.flush().expect("log flush failed");
        if self.fsync {
            self.out.get_ref().sync_data().expect("log fsync failed");
        }
        self.metrics.fsync_nanos.observe_duration(t0.elapsed());
    }

    /// Rotate the active file into an archive segment if it outgrew the
    /// budget. Runs only between commit groups, after a sync, so every
    /// segment holds whole transactions and its last commit timestamp is
    /// its maximum.
    fn maybe_rotate(&mut self) {
        if self.segment_bytes == 0 || !self.has_commits || self.active_bytes < self.segment_bytes {
            return;
        }
        self.sync();
        let archive = segments::archive_path(&self.path, self.next_seq, self.last_commit_ts);
        if std::fs::rename(&self.path, &archive).is_err() {
            // Rename failure (exotic filesystem): keep appending to the
            // oversized active file rather than losing the log.
            return;
        }
        let file = match OpenOptions::new().create(true).append(true).open(&self.path) {
            Ok(f) => f,
            Err(e) => panic!("reopen log after rotation failed: {e}"),
        };
        self.out = BufWriter::with_capacity(1 << 20, file);
        self.next_seq += 1;
        self.active_bytes = 0;
        self.has_commits = false;
        self.metrics.rotations.inc();
    }
}

fn run_loop(w: &mut SegmentedWriter, rx: Receiver<Msg>) {
    let mut ddl_frames: Vec<u8> = Vec::new();
    let mut commit_frame: Vec<u8> = Vec::with_capacity(16);
    let mut callbacks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();

    let sync_and_ack = |w: &mut SegmentedWriter, callbacks: &mut Vec<Box<dyn FnOnce() + Send>>| {
        if callbacks.is_empty() {
            return;
        }
        w.sync();
        w.metrics.group_commit_txns.observe(callbacks.len() as u64);
        w.metrics.commits_acked.add(callbacks.len() as u64);
        for cb in callbacks.drain(..) {
            cb();
        }
    };

    loop {
        // Block for the first message, then opportunistically drain the
        // queue to form a group commit.
        let first = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        let mut batch = vec![first];
        while let Ok(m) = rx.try_recv() {
            batch.push(m);
            if batch.len() >= 1024 {
                break;
            }
        }
        for msg in batch {
            match msg {
                Msg::Commit { commit_ts, mut redo, ddl, read_only, callback } => {
                    if !read_only {
                        ddl_frames.clear();
                        // DDL before data: replay applies a group's catalog
                        // changes first, and the serialized order should
                        // match.
                        for d in &ddl {
                            match d {
                                DdlRecord::CreateTable(c) => {
                                    encode_create_table(&mut ddl_frames, commit_ts, c)
                                }
                                DdlRecord::DropTable { table_id, name } => {
                                    encode_drop_table(&mut ddl_frames, commit_ts, *table_id, name)
                                }
                            }
                        }
                        stamp(&mut redo, commit_ts);
                        commit_frame.clear();
                        encode_commit(&mut commit_frame, commit_ts);
                        w.write_txn([&ddl_frames, &redo, &commit_frame], commit_ts);
                    }
                    // Read-only commit records are acknowledged without being
                    // written (§3.4).
                    callbacks.push(callback);
                }
                Msg::Flush(ack) => {
                    sync_and_ack(w, &mut callbacks);
                    let _ = ack.send(());
                }
            }
        }
        sync_and_ack(w, &mut callbacks);
        w.maybe_rotate();
    }
    // `recv` above only errors once the queue is drained AND the sender is
    // closed, so reaching here means every accepted commit has been handled;
    // this final sync covers callbacks batched in the last iteration.
    sync_and_ack(w, &mut callbacks);
    w.sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_storage::TupleSlot;
    use mainline_txn::redo::{write_redo, OP_INSERT};
    use std::sync::atomic::Ordering;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mainline-wal-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        for seg in segments::list_segments(&p).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        for seg in segments::list_segments(p).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
    }

    /// One insert frame, as a transaction's redo buffer holds it.
    fn redo(ts: u64) -> Vec<u8> {
        let mut frames = Vec::new();
        let slot = TupleSlot::from_raw(ts << 20);
        write_redo(&mut frames, OP_INSERT, 1, slot, [(1, Some(&[ts as u8][..]))]);
        frames
    }

    #[test]
    fn callbacks_fire_after_flush() {
        use std::sync::atomic::AtomicBool;
        let path = tmp("cb");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        lm.queue_commit(
            Timestamp(3),
            redo(3),
            vec![],
            false,
            Box::new(move || h.store(true, Ordering::SeqCst)),
        );
        lm.flush();
        assert!(hit.load(Ordering::SeqCst));
        lm.shutdown();
        let bytes = segments::read_log(&path).unwrap();
        assert!(!bytes.is_empty());
        cleanup(&path);
    }

    #[test]
    fn callback_fires_even_after_shutdown() {
        use std::sync::atomic::AtomicBool;
        let path = tmp("post-shutdown");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        lm.shutdown();
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        lm.queue_commit(
            Timestamp(9),
            redo(9),
            vec![],
            false,
            Box::new(move || h.store(true, Ordering::SeqCst)),
        );
        assert!(hit.load(Ordering::SeqCst), "committer must not wait on durability forever");
        cleanup(&path);
    }

    #[test]
    fn read_only_commits_write_nothing() {
        let path = tmp("ro");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        lm.queue_commit(Timestamp(1), vec![], vec![], true, Box::new(|| {}));
        lm.flush();
        lm.shutdown();
        assert_eq!(segments::read_log(&path).unwrap().len(), 0);
        assert_eq!(lm.bytes_written(), 0);
        cleanup(&path);
    }

    #[test]
    fn log_contents_replayable() {
        use crate::record::{LogPayload, LogReader};
        let path = tmp("replay");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        for ts in 1..=5u64 {
            lm.queue_commit(Timestamp(ts), redo(ts), vec![], false, Box::new(|| {}));
        }
        lm.flush();
        lm.shutdown();
        let bytes = segments::read_log(&path).unwrap();
        let mut r = LogReader::new(&bytes);
        let mut commits = 0;
        let mut redos = 0;
        while let Some(e) = r.next_entry().unwrap() {
            match e.payload {
                LogPayload::Redo(_) => redos += 1,
                LogPayload::Commit => commits += 1,
                LogPayload::CreateTable(_) | LogPayload::DropTable { .. } => {}
            }
        }
        assert_eq!((redos, commits), (5, 5));
        cleanup(&path);
    }

    #[test]
    fn frames_are_stamped_and_written_between_ddl_and_commit() {
        use crate::record::{LogPayload, LogReader};
        let path = tmp("stamp");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        let mut frames = redo(1);
        frames.extend_from_slice(&redo(2));
        let ddl = vec![DdlRecord::DropTable { table_id: 4, name: "t".into() }];
        lm.queue_commit(Timestamp(77), frames, ddl, false, Box::new(|| {}));
        lm.flush();
        lm.shutdown();
        let bytes = segments::read_log(&path).unwrap();
        let mut r = LogReader::new(&bytes);
        let mut kinds = Vec::new();
        while let Some(e) = r.next_entry().unwrap() {
            assert_eq!(e.commit_ts, Timestamp(77));
            kinds.push(match e.payload {
                LogPayload::Redo(v) => format!("insert {}", v.slot.raw() >> 20),
                LogPayload::Commit => "commit".into(),
                LogPayload::DropTable { .. } => "drop".into(),
                LogPayload::CreateTable(_) => "create".into(),
            });
        }
        assert_eq!(kinds, ["drop", "insert 1", "insert 2", "commit"]);
        cleanup(&path);
    }

    #[test]
    fn concurrent_producers() {
        let path = tmp("conc");
        let lm =
            LogManager::start(LogManagerConfig { fsync: false, ..LogManagerConfig::new(&path) })
                .unwrap();
        let mut handles = vec![];
        for t in 0..4u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    lm.queue_commit(
                        Timestamp(t * 1000 + i),
                        redo(i),
                        vec![],
                        false,
                        Box::new(|| {}),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        lm.flush();
        lm.shutdown();
        use crate::record::{LogPayload, LogReader};
        let bytes = segments::read_log(&path).unwrap();
        let mut r = LogReader::new(&bytes);
        let mut commits = 0;
        while let Some(e) = r.next_entry().unwrap() {
            if matches!(e.payload, LogPayload::Commit) {
                commits += 1;
            }
        }
        assert_eq!(commits, 400);
        cleanup(&path);
    }

    #[test]
    fn rotation_archives_whole_commit_groups_and_resumes_sequencing() {
        use crate::record::{LogPayload, LogReader};
        let path = tmp("rotate");
        let config = LogManagerConfig {
            fsync: false,
            segment_bytes: 256, // tiny: a handful of commits per segment
            ..LogManagerConfig::new(&path)
        };
        let lm = LogManager::start(config.clone()).unwrap();
        for ts in 1..=50u64 {
            lm.queue_commit(Timestamp(ts), redo(ts), vec![], false, Box::new(|| {}));
            // Flush each commit so groups stay small and rotation triggers
            // deterministically between them.
            lm.flush();
        }
        lm.shutdown();

        let segs = segments::list_segments(&path).unwrap();
        assert!(segs.len() >= 2, "tiny segment budget must have rotated: {segs:?}");
        // Sequence numbers are dense from 1 and last-commit timestamps are
        // strictly increasing (records are written in commit order).
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.seq, i as u64 + 1);
        }
        assert!(segs.windows(2).all(|w| w[0].last_commit_ts < w[1].last_commit_ts));

        // Each archive really is a parseable stream of whole transactions,
        // and its filename timestamp matches its content.
        for s in &segs {
            let bytes = std::fs::read(&s.path).unwrap();
            let mut r = LogReader::new(&bytes);
            let mut last_commit = 0;
            let mut dangling_redo = false;
            while let Some(e) = r.next_entry().unwrap() {
                match e.payload {
                    LogPayload::Redo(_) => dangling_redo = true,
                    LogPayload::Commit => {
                        dangling_redo = false;
                        last_commit = e.commit_ts.0;
                    }
                    LogPayload::CreateTable(_) | LogPayload::DropTable { .. } => {
                        dangling_redo = true
                    }
                }
            }
            assert!(!dangling_redo, "segment ends mid-transaction");
            assert_eq!(Timestamp(last_commit), s.last_commit_ts);
        }

        // The concatenated log replays all 50 commits in order.
        let bytes = segments::read_log(&path).unwrap();
        let mut r = LogReader::new(&bytes);
        let mut commits = Vec::new();
        while let Some(e) = r.next_entry().unwrap() {
            if matches!(e.payload, LogPayload::Commit) {
                commits.push(e.commit_ts.0);
            }
        }
        assert_eq!(commits, (1..=50).collect::<Vec<_>>());

        // A reopened log continues the sequence instead of clobbering it.
        let lm = LogManager::start(config).unwrap();
        for ts in 51..=80u64 {
            lm.queue_commit(Timestamp(ts), redo(ts), vec![], false, Box::new(|| {}));
            lm.flush();
        }
        lm.shutdown();
        let reopened = segments::list_segments(&path).unwrap();
        assert!(reopened.len() > segs.len());
        for (i, s) in reopened.iter().enumerate() {
            assert_eq!(s.seq, i as u64 + 1, "sequence must continue across restarts");
        }
        cleanup(&path);
    }

    #[test]
    fn truncate_below_drops_only_covered_segments() {
        let path = tmp("trunc");
        let lm = LogManager::start(LogManagerConfig {
            fsync: false,
            segment_bytes: 256,
            ..LogManagerConfig::new(&path)
        })
        .unwrap();
        for ts in 1..=60u64 {
            lm.queue_commit(Timestamp(ts), redo(ts), vec![], false, Box::new(|| {}));
            lm.flush();
        }
        let segs = segments::list_segments(&path).unwrap();
        assert!(segs.len() >= 3);
        let cut = segs[segs.len() / 2].last_commit_ts;
        let dropped = lm.truncate_below(cut).unwrap();
        assert!(dropped > 0);
        // Every record above the cut is still replayable.
        use crate::record::{LogPayload, LogReader};
        lm.shutdown();
        let bytes = segments::read_log(&path).unwrap();
        let mut r = LogReader::new(&bytes);
        let mut commits = Vec::new();
        while let Some(e) = r.next_entry().unwrap() {
            if matches!(e.payload, LogPayload::Commit) {
                commits.push(e.commit_ts.0);
            }
        }
        for ts in cut.0 + 1..=60 {
            assert!(commits.contains(&ts), "commit {ts} lost by truncation");
        }
        cleanup(&path);
    }
}
