//! The storage seam: a flat directory of named files reached through a
//! handful of primitives.
//!
//! Everything crash-critical — segment rotation ([`crate::Wal::rotate`]),
//! snapshot publish ([`crate::checkpoint`]) and open-time recovery
//! (`Wal::open`) — is written once over `&dyn Disk`; the two
//! implementations hold nothing but file primitives. [`FileDisk`] is the
//! real directory; [`MemDisk`] is the in-memory one whose operation journal
//! lets tests rebuild the disk as of any crash point, so the crash matrices
//! exercise the very protocol code production runs.
//!
//! ## Names
//!
//! Files carry *logical* names, identical on both disks:
//!
//! | logical name          | holds                                      |
//! |-----------------------|--------------------------------------------|
//! | `wal`                 | the initial WAL segment (first record 1)   |
//! | `wal.seg{N:020}`      | the segment whose first record is `N`      |
//! | `snapshot.tmp`        | a snapshot being written                   |
//! | `snapshot.cur`        | the published snapshot                     |
//! | `snapshot.prev`       | the one before it (recovery's fallback)    |
//!
//! [`FileDisk`] maps them beside its base path: `wal{suffix}` is
//! `{path}{suffix}` and `snapshot.{slot}` is `{path}.ckpt.{slot}`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::{Condvar, Mutex};

/// Logical name of the initial WAL segment.
pub const WAL_BASE: &str = "wal";
/// Logical name of the published snapshot.
pub const SNAP_CUR: &str = "snapshot.cur";
/// Logical name of the previous snapshot.
pub const SNAP_PREV: &str = "snapshot.prev";
/// Logical name of the in-flight snapshot.
pub const SNAP_TMP: &str = "snapshot.tmp";

/// Name of the WAL segment whose first record is `first_seq` (zero-padded
/// so lexical order is sequence order); the chain from record 1 lives in
/// [`WAL_BASE`] itself.
pub fn segment_name(first_seq: u64) -> String {
    if first_seq == 1 {
        WAL_BASE.to_string()
    } else {
        format!("{WAL_BASE}.seg{first_seq:020}")
    }
}

/// Inverse of [`segment_name`]: the first sequence number a file named
/// `name` holds, or `None` when it is not a WAL segment.
pub fn segment_first_seq(name: &str) -> Option<u64> {
    match name.strip_prefix(WAL_BASE)? {
        "" => Some(1),
        rest => rest.strip_prefix(".seg")?.parse().ok(),
    }
}

/// An open file accepting appends — what the WAL keeps for its active
/// segment, so a group-commit batch costs one `append` and one `sync`
/// with no lookup by name.
pub trait DiskFile: Send {
    /// Write `data` at the end of the file. Durability still requires
    /// [`DiskFile::sync`].
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Block until every appended byte is durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// File primitives over one flat directory. Metadata changes (`create`,
/// `rename`, `delete`) are durable only after [`Disk::sync_dir`].
pub trait Disk: Send + Sync {
    /// Logical names of every file present, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Full contents of `name`, or `None` when absent.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Create `name` empty (replacing any existing file) and open it for
    /// append.
    fn create(&self, name: &str) -> io::Result<Box<dyn DiskFile>>;
    /// Open the existing file `name` for append at its end.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn DiskFile>>;
    /// Cut `name` to its first `len` bytes, durably.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing `to`. A missing `from`
    /// is `ErrorKind::NotFound`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Remove `name`; returns the bytes freed (0 when it was absent).
    fn delete(&self, name: &str) -> io::Result<u64>;
    /// Make every metadata change so far durable.
    fn sync_dir(&self) -> io::Result<()>;
}

/// The real thing: files beside the WAL base path (see the module docs for
/// the name mapping).
pub struct FileDisk {
    base: PathBuf,
}

impl FileDisk {
    /// The disk of the store whose WAL base file is `base`.
    pub fn new(base: impl Into<PathBuf>) -> Self {
        FileDisk { base: base.into() }
    }

    fn path(&self, name: &str) -> PathBuf {
        let suffix = match name.strip_prefix("snapshot.") {
            Some(slot) => format!(".ckpt.{slot}"),
            None => name
                .strip_prefix(WAL_BASE)
                .expect("FileDisk names start with `wal` or `snapshot.`")
                .to_string(),
        };
        let mut s = self.base.as_os_str().to_os_string();
        s.push(suffix);
        PathBuf::from(s)
    }

    fn dir(&self) -> &Path {
        self.base
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
    }
}

struct FileHandle(File);

impl DiskFile for FileHandle {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.0.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Disk for FileDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        let base_name = self
            .base
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.dir())? {
            let file_name = entry?.file_name();
            if let Some(suffix) = file_name.to_string_lossy().strip_prefix(&base_name) {
                names.push(match suffix.strip_prefix(".ckpt.") {
                    Some(slot) => format!("snapshot.{slot}"),
                    None => format!("{WAL_BASE}{suffix}"),
                });
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn DiskFile>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(self.path(name))?;
        Ok(Box::new(FileHandle(file)))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DiskFile>> {
        let file = OpenOptions::new().append(true).open(self.path(name))?;
        Ok(Box::new(FileHandle(file)))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn delete(&self, name: &str) -> io::Result<u64> {
        let path = self.path(name);
        let freed = std::fs::metadata(&path).map_or(0, |md| md.len());
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(freed),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(self.dir())?.sync_all()
    }
}

/// One durability-relevant operation on a [`MemDisk`], journaled so
/// tests can rebuild the disk as of any prefix — byte-exact crash
/// images across checkpoint boundaries. Metadata operations (create,
/// rename, delete) are treated as atomic and durable because the
/// protocols fsync the directory after each one.
#[derive(Debug, Clone)]
enum DiskEvent {
    Append { file: String, bytes: Vec<u8> },
    Sync { file: String },
    Create { file: String },
    Rename { from: String, to: String },
    Delete { file: String },
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    written: Vec<u8>,
    synced_len: usize,
}

/// The two points a test can hold a [`MemDisk`] at.
#[derive(Clone, Copy)]
enum Gate {
    /// Creating [`SNAP_TMP`] — the first step of a snapshot publish.
    Publish = 0,
    /// Any file `sync`.
    Sync = 1,
}

#[derive(Default)]
struct MemDiskInner {
    files: BTreeMap<String, MemFile>,
    journal: Vec<DiskEvent>,
    /// `stamps[i]`: when `journal[i]` happened, on a clock shared by every
    /// `MemDisk` of the process.
    stamps: Vec<u64>,
    /// Test affordances: while `held[gate]`, operations reaching that gate
    /// block (`waiting[gate]` counts them); every sync first sleeps
    /// `sync_delay`.
    held: [bool; 2],
    waiting: [u64; 2],
    sync_delay: Duration,
}

impl MemDiskInner {
    fn apply(&mut self, ev: &DiskEvent, limit: Option<usize>) {
        match ev {
            DiskEvent::Create { file } => {
                self.files.insert(file.clone(), MemFile::default());
            }
            DiskEvent::Append { file, bytes } => {
                let take = limit.unwrap_or(bytes.len()).min(bytes.len());
                if let Some(f) = self.files.get_mut(file) {
                    f.written.extend_from_slice(&bytes[..take]);
                }
            }
            DiskEvent::Sync { file } => {
                if let Some(f) = self.files.get_mut(file) {
                    f.synced_len = f.written.len();
                }
            }
            DiskEvent::Rename { from, to } => {
                if let Some(f) = self.files.remove(from) {
                    self.files.insert(to.clone(), f);
                }
            }
            DiskEvent::Delete { file } => {
                self.files.remove(file);
            }
        }
    }

    /// Apply `ev` to the live files and journal it.
    fn record(&mut self, ev: DiskEvent) {
        static CLOCK: AtomicU64 = AtomicU64::new(0);
        self.apply(&ev, None);
        self.journal.push(ev);
        self.stamps.push(CLOCK.fetch_add(1, Ordering::Relaxed));
    }
}

struct MemDiskShared {
    state: Mutex<MemDiskInner>,
    gate_cv: Condvar,
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no file `{name}` on this MemDisk"),
    )
}

/// An in-memory [`Disk`] with per-file synced-prefix tracking and an
/// operation journal. Tests use the journal to rebuild the disk as of any
/// operation prefix — including a byte-level cut of a trailing append — to
/// enumerate every crash image ([`MemDisk::crash_image`]). Clones share
/// the same disk.
#[derive(Clone)]
pub struct MemDisk {
    inner: Arc<MemDiskShared>,
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl MemDisk {
    /// A fresh, empty disk.
    pub fn new() -> Self {
        MemDisk {
            inner: Arc::new(MemDiskShared {
                state: Mutex::new(MemDiskInner::default()),
                gate_cv: Condvar::new(),
            }),
        }
    }

    /// A disk holding one fully synced file `name` with `bytes` — the
    /// starting point for hand-built or hand-corrupted recovery images.
    pub fn with_file(name: &str, bytes: &[u8]) -> Self {
        let disk = Self::new();
        let file = MemFile {
            written: bytes.to_vec(),
            synced_len: bytes.len(),
        };
        disk.inner.state.lock().files.insert(name.to_string(), file);
        disk
    }

    /// The durable prefix of `name`: what survives a crash for certain
    /// (empty when the file is absent).
    pub fn synced(&self, name: &str) -> Vec<u8> {
        let g = self.inner.state.lock();
        g.files
            .get(name)
            .map_or_else(Vec::new, |f| f.written[..f.synced_len].to_vec())
    }

    /// Number of file syncs so far.
    pub fn sync_count(&self) -> u64 {
        let g = self.inner.state.lock();
        let is_sync = |e: &&DiskEvent| matches!(e, DiskEvent::Sync { .. });
        g.journal.iter().filter(is_sync).count() as u64
    }

    /// Total bytes across live WAL segments.
    pub fn wal_bytes(&self) -> u64 {
        let g = self.inner.state.lock();
        g.files
            .iter()
            .filter(|(n, _)| segment_first_seq(n).is_some())
            .map(|(_, f)| f.written.len() as u64)
            .sum()
    }

    /// Number of journaled disk operations so far.
    pub fn journal_len(&self) -> usize {
        self.inner.state.lock().journal.len()
    }

    /// When each journal entry happened, on a clock all the process's
    /// disks share — so a test can merge several journals into the one
    /// order a protocol spanning them ran in, and cut every disk at the
    /// same instant.
    pub fn event_stamps(&self) -> Vec<u64> {
        self.inner.state.lock().stamps.clone()
    }

    /// If journal entry `i` is an append, its byte length (so tests can
    /// enumerate byte-level cuts inside it).
    pub fn event_append_len(&self, i: usize) -> Option<usize> {
        match self.inner.state.lock().journal.get(i) {
            Some(DiskEvent::Append { bytes, .. }) => Some(bytes.len()),
            _ => None,
        }
    }

    /// Rebuild the disk as it would look after a crash: journal entries
    /// `..events` fully applied, plus the first `partial_bytes` of entry
    /// `events` if that entry is an append. With `synced_only`, every
    /// file is additionally truncated to its synced prefix (the
    /// pessimistic image: unsynced bytes never reached the platter);
    /// otherwise unsynced bytes survive (the optimistic image). Metadata
    /// operations are always durable — the protocols fsync the directory
    /// after each. The journal covers operations since this disk was
    /// created empty: recovery's torn-tail truncation is not journaled,
    /// so take images of the disk a history ran on, not of an image.
    pub fn crash_image(&self, events: usize, partial_bytes: usize, synced_only: bool) -> MemDisk {
        let journal = self.inner.state.lock().journal.clone();
        let img = Self::new();
        {
            let mut g = img.inner.state.lock();
            for ev in journal.iter().take(events) {
                g.apply(ev, None);
            }
            if let Some(ev @ DiskEvent::Append { .. }) = journal.get(events) {
                g.apply(ev, Some(partial_bytes));
            }
            if synced_only {
                for f in g.files.values_mut() {
                    let keep = f.synced_len;
                    f.written.truncate(keep);
                }
            }
        }
        img
    }

    /// Hold all snapshot publishes: a checkpoint reaching its publish
    /// step blocks until [`MemDisk::release_publishes`].
    pub fn hold_publishes(&self) {
        self.inner.state.lock().held[Gate::Publish as usize] = true;
    }

    /// Release held publishes and wake blocked checkpointers.
    pub fn release_publishes(&self) {
        self.inner.state.lock().held[Gate::Publish as usize] = false;
        self.inner.gate_cv.notify_all();
    }

    /// True while at least one publish is blocked on the gate.
    pub fn publish_blocked(&self) -> bool {
        self.inner.state.lock().waiting[Gate::Publish as usize] > 0
    }

    /// Hold every file sync: an append reaching its fsync blocks — bytes
    /// written, nothing durable — until [`MemDisk::release_syncs`].
    pub fn hold_syncs(&self) {
        self.inner.state.lock().held[Gate::Sync as usize] = true;
    }

    /// Release held syncs and wake the blocked appenders.
    pub fn release_syncs(&self) {
        self.inner.state.lock().held[Gate::Sync as usize] = false;
        self.inner.gate_cv.notify_all();
    }

    /// Make every file sync take at least `delay` — a slow platter, so
    /// concurrent appenders pile up behind the group-commit leader.
    pub fn set_sync_delay(&self, delay: Duration) {
        self.inner.state.lock().sync_delay = delay;
    }

    fn await_gate(&self, gate: Gate) {
        let mut g = self.inner.state.lock();
        if g.held[gate as usize] {
            g.waiting[gate as usize] += 1;
            while g.held[gate as usize] {
                self.inner.gate_cv.wait(&mut g);
            }
            g.waiting[gate as usize] -= 1;
        }
    }

    fn handle(&self, name: &str) -> Box<dyn DiskFile> {
        Box::new(MemHandle {
            disk: self.clone(),
            name: name.to_string(),
        })
    }
}

struct MemHandle {
    disk: MemDisk,
    name: String,
}

impl DiskFile for MemHandle {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut g = self.disk.inner.state.lock();
        if !g.files.contains_key(&self.name) {
            return Err(not_found(&self.name));
        }
        g.record(DiskEvent::Append {
            file: self.name.clone(),
            bytes: data.to_vec(),
        });
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.disk.await_gate(Gate::Sync);
        let delay = self.disk.inner.state.lock().sync_delay;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let mut g = self.disk.inner.state.lock();
        if !g.files.contains_key(&self.name) {
            return Err(not_found(&self.name));
        }
        g.record(DiskEvent::Sync {
            file: self.name.clone(),
        });
        Ok(())
    }
}

impl Disk for MemDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.inner.state.lock().files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let g = self.inner.state.lock();
        Ok(g.files.get(name).map(|f| f.written.clone()))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn DiskFile>> {
        if name == SNAP_TMP {
            self.await_gate(Gate::Publish);
        }
        self.inner.state.lock().record(DiskEvent::Create {
            file: name.to_string(),
        });
        Ok(self.handle(name))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DiskFile>> {
        if !self.inner.state.lock().files.contains_key(name) {
            return Err(not_found(name));
        }
        Ok(self.handle(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut g = self.inner.state.lock();
        let f = g.files.get_mut(name).ok_or_else(|| not_found(name))?;
        f.written.truncate(len as usize);
        f.synced_len = f.synced_len.min(len as usize);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut g = self.inner.state.lock();
        if !g.files.contains_key(from) {
            return Err(not_found(from));
        }
        g.record(DiskEvent::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        Ok(())
    }

    fn delete(&self, name: &str) -> io::Result<u64> {
        let mut g = self.inner.state.lock();
        let Some(f) = g.files.get(name) else {
            return Ok(0);
        };
        let freed = f.written.len() as u64;
        g.record(DiskEvent::Delete {
            file: name.to_string(),
        });
        Ok(freed)
    }

    fn sync_dir(&self) -> io::Result<()> {
        Ok(())
    }
}
