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
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::{Condvar, Mutex};

use crate::wal::PREALLOC_CHUNK;

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

/// An open file written by position — what the WAL keeps for its active
/// segment, so a group-commit batch costs one `write_at` and one `sync`
/// with no lookup by name. None of the writes is durable before
/// [`DiskFile::sync`].
pub trait DiskFile: Send {
    /// Write `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Write `data` at byte `off`, which must not lie past the end of the
    /// file: over what is there, and growing the file where it runs past
    /// the end.
    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()>;
    /// Grow the file by `len` zero bytes, written as data — real blocks,
    /// not a hole — so a later `write_at` into them changes no file size
    /// and its sync commits no metadata.
    fn zero_extend(&mut self, len: u64) -> io::Result<()>;
    /// Block until every written byte is durable.
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
    /// writing.
    fn create(&self, name: &str) -> io::Result<Box<dyn DiskFile>>;
    /// Open the existing file `name` for writing; [`DiskFile::append`]
    /// writes at its end.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn DiskFile>>;
    /// Cut `name` to its first `len` bytes, durably.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing `to`. A missing `from`
    /// is `ErrorKind::NotFound`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Remove `name`, if present.
    fn delete(&self, name: &str) -> io::Result<()>;
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

/// The zeros [`DiskFile::zero_extend`] writes on a [`FileDisk`]: static,
/// so a fill costs no allocation and no resident heap.
static ZEROS: [u8; PREALLOC_CHUNK] = [0; PREALLOC_CHUNK];

/// An open file and its length. Every write names its offset (`pwrite`);
/// the fd is never `O_APPEND`, on which Linux `pwrite` ignores the offset
/// and appends.
struct FileHandle {
    file: File,
    len: u64,
}

impl DiskFile for FileHandle {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.write_at(self.len, data)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        if off > self.len {
            return Err(past_end(off, self.len));
        }
        self.file.write_all_at(data, off)?;
        self.len = self.len.max(off + data.len() as u64);
        Ok(())
    }

    fn zero_extend(&mut self, len: u64) -> io::Result<()> {
        let end = self.len + len;
        while self.len < end {
            let n = (end - self.len).min(ZEROS.len() as u64) as usize;
            self.write_at(self.len, &ZEROS[..n])?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
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
        Ok(Box::new(FileHandle { file, len: 0 }))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DiskFile>> {
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        let len = file.metadata()?.len();
        Ok(Box::new(FileHandle { file, len }))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(self.dir())?.sync_all()
    }
}

fn past_end(off: u64, len: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("write at {off} past the end of a {len}-byte file"),
    )
}

/// One durability-relevant operation on a [`MemDisk`], journaled so
/// tests can rebuild the disk as of any prefix — byte-exact crash
/// images across checkpoint boundaries. Metadata operations (create,
/// rename, delete) are treated as atomic and durable because the
/// protocols fsync the directory after each one. `Write` is data at
/// `off` (an append writes at the file's end); `Zeros` is a
/// [`DiskFile::zero_extend`] of `len` bytes.
#[derive(Debug, Clone)]
enum DiskEvent {
    Write {
        file: String,
        off: usize,
        bytes: Vec<u8>,
    },
    Zeros {
        file: String,
        len: usize,
    },
    Sync {
        file: String,
    },
    Create {
        file: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Delete {
        file: String,
    },
}

/// A file's bytes and what of them is durable. The zero fill is told
/// apart from data, so byte counts can leave it out: the file is
/// `written[..data_len]` — everything [`DiskFile::write_at`] put there —
/// then zeros. A sync makes the data and the length durable; the WAL
/// writes only past the synced data, into zeros, so an image that loses
/// the unsynced writes is the synced data zero-filled to the synced
/// length.
#[derive(Debug, Default, Clone)]
struct MemFile {
    written: Vec<u8>,
    data_len: usize,
    synced_len: usize,
    synced_size: usize,
}

impl MemFile {
    /// Cut everything unsynced: the pessimistic crash image of the file.
    fn drop_unsynced(&mut self) {
        self.written.truncate(self.synced_len);
        self.written.resize(self.synced_size, 0);
        self.data_len = self.synced_len;
    }
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
            DiskEvent::Write { file, off, bytes } => {
                let take = limit.unwrap_or(bytes.len()).min(bytes.len());
                if let Some(f) = self.files.get_mut(file) {
                    let end = off + take;
                    if f.written.len() < end {
                        f.written.resize(end, 0);
                    }
                    f.written[*off..end].copy_from_slice(&bytes[..take]);
                    f.data_len = f.data_len.max(end);
                }
            }
            DiskEvent::Zeros { file, len } => {
                if let Some(f) = self.files.get_mut(file) {
                    f.written.resize(f.written.len() + len, 0);
                }
            }
            DiskEvent::Sync { file } => {
                if let Some(f) = self.files.get_mut(file) {
                    f.synced_len = f.data_len;
                    f.synced_size = f.written.len();
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

    /// A disk holding one fully synced file `name` with `bytes`, all of
    /// them data — the starting point for hand-built or hand-corrupted
    /// recovery images.
    pub fn with_file(name: &str, bytes: &[u8]) -> Self {
        let disk = Self::new();
        let file = MemFile {
            written: bytes.to_vec(),
            data_len: bytes.len(),
            synced_len: bytes.len(),
            synced_size: bytes.len(),
        };
        disk.inner.state.lock().files.insert(name.to_string(), file);
        disk
    }

    /// The durable data of `name`: what survives a crash for certain,
    /// the zero fill after it left out (empty when the file is absent).
    pub fn synced(&self, name: &str) -> Vec<u8> {
        let g = self.inner.state.lock();
        g.files
            .get(name)
            .map_or_else(Vec::new, |f| f.written[..f.synced_len].to_vec())
    }

    /// The data of `name`, synced or not: what [`Disk::read`] returns,
    /// the zero fill after it left out (empty when the file is absent).
    pub fn written(&self, name: &str) -> Vec<u8> {
        let g = self.inner.state.lock();
        g.files
            .get(name)
            .map_or_else(Vec::new, |f| f.written[..f.data_len].to_vec())
    }

    /// Number of file syncs so far.
    pub fn sync_count(&self) -> u64 {
        let g = self.inner.state.lock();
        let is_sync = |e: &&DiskEvent| matches!(e, DiskEvent::Sync { .. });
        g.journal.iter().filter(is_sync).count() as u64
    }

    /// Total data bytes across live WAL segments — records, not the
    /// zero fill ahead of them.
    pub fn wal_bytes(&self) -> u64 {
        let g = self.inner.state.lock();
        g.files
            .iter()
            .filter(|(n, _)| segment_first_seq(n).is_some())
            .map(|(_, f)| f.data_len as u64)
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

    /// If journal entry `i` is a data write (an append or a positional
    /// write), its byte length (so tests can enumerate byte-level cuts
    /// inside it). A zero fill is not one: any cut of it is a shorter
    /// zero tail.
    pub fn event_append_len(&self, i: usize) -> Option<usize> {
        match self.inner.state.lock().journal.get(i) {
            Some(DiskEvent::Write { bytes, .. }) => Some(bytes.len()),
            _ => None,
        }
    }

    /// Rebuild the disk as it would look after a crash: journal entries
    /// `..events` fully applied, plus the first `partial_bytes` of entry
    /// `events` if that entry is a data write. With `synced_only`, every
    /// file is additionally cut back to what its last sync made durable
    /// (the pessimistic image: unsynced writes never reached the platter);
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
            if let Some(ev @ DiskEvent::Write { .. }) = journal.get(events) {
                g.apply(ev, Some(partial_bytes));
            }
            if synced_only {
                g.files.values_mut().for_each(MemFile::drop_unsynced);
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

impl MemHandle {
    /// Journal the event `make` builds from the file's current length.
    fn record(&self, make: impl FnOnce(usize) -> io::Result<DiskEvent>) -> io::Result<()> {
        let mut g = self.disk.inner.state.lock();
        let len = match g.files.get(&self.name) {
            Some(f) => f.written.len(),
            None => return Err(not_found(&self.name)),
        };
        let ev = make(len)?;
        g.record(ev);
        Ok(())
    }

    fn write_event(&self, off: usize, data: &[u8]) -> DiskEvent {
        DiskEvent::Write {
            file: self.name.clone(),
            off,
            bytes: data.to_vec(),
        }
    }
}

impl DiskFile for MemHandle {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.record(|len| Ok(self.write_event(len, data)))
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        self.record(|len| {
            if off > len as u64 {
                return Err(past_end(off, len as u64));
            }
            Ok(self.write_event(off as usize, data))
        })
    }

    fn zero_extend(&mut self, len: u64) -> io::Result<()> {
        self.record(|_| {
            Ok(DiskEvent::Zeros {
                file: self.name.clone(),
                len: len as usize,
            })
        })
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
        let len = len as usize;
        f.written.truncate(len);
        f.data_len = f.data_len.min(len);
        f.synced_len = f.synced_len.min(len);
        f.synced_size = f.synced_size.min(len);
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

    fn delete(&self, name: &str) -> io::Result<()> {
        let mut g = self.inner.state.lock();
        if g.files.contains_key(name) {
            g.record(DiskEvent::Delete {
                file: name.to_string(),
            });
        }
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// One script of appends, positional writes, zero fills and a sync
    /// on `disk`'s file `wal`; returns the file's bytes after it.
    fn script(disk: &dyn Disk) -> Vec<u8> {
        let mut f = disk.create(WAL_BASE).unwrap();
        f.append(b"abcdef").unwrap();
        f.sync().unwrap();
        // A second handle on the same file: its writes land where they
        // say, not at the end — on an `O_APPEND` fd Linux `pwrite`
        // would append them.
        let mut g = disk.open_append(WAL_BASE).unwrap();
        g.write_at(2, b"XY").unwrap();
        assert_eq!(disk.read(WAL_BASE).unwrap().unwrap(), b"abXYef");
        g.zero_extend(10).unwrap();
        g.write_at(6, b"gh").unwrap();
        let err = g.write_at(17, b"hole").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        g.sync().unwrap();
        g.append(b"!").unwrap();
        disk.read(WAL_BASE).unwrap().unwrap()
    }

    #[test]
    fn file_and_mem_files_write_by_position_and_zero_extend_alike() {
        let mut want = b"abXYefgh".to_vec();
        want.resize(16, 0);
        want.push(b'!');

        let dir = std::env::temp_dir().join(format!("ad-kv-disk-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(script(&FileDisk::new(dir.join("store.wal"))), want);
        let _ = std::fs::remove_dir_all(&dir);

        let mem = MemDisk::new();
        assert_eq!(script(&mem), want);
        // The zero fill is not data: the synced data ends where the last
        // write into the fill did. The append after the sync went to the
        // end of the file, past the rest of the fill.
        assert_eq!(mem.synced(WAL_BASE), b"abXYefgh");
        assert_eq!(mem.written(WAL_BASE), want);
    }

    #[test]
    fn a_memdisk_crash_image_keeps_the_synced_zero_fill_and_drops_unsynced_writes() {
        let mem = MemDisk::new();
        let mut f = mem.create(WAL_BASE).unwrap();
        f.zero_extend(8).unwrap();
        f.write_at(0, b"rec1").unwrap();
        f.sync().unwrap();
        let synced = mem.journal_len();
        f.write_at(4, b"rec2").unwrap();
        f.zero_extend(4).unwrap();
        let read = |d: &MemDisk| d.read(WAL_BASE).unwrap().unwrap();
        assert_eq!(read(&mem), b"rec1rec2\0\0\0\0");

        // Pessimistic: the write into the synced fill is undone, the
        // unsynced fill is gone.
        let pess = mem.crash_image(mem.journal_len(), 0, true);
        assert_eq!(read(&pess), b"rec1\0\0\0\0");
        assert_eq!(pess.written(WAL_BASE), b"rec1");
        // Optimistic, torn mid-write: half of it, then the fill.
        let torn = mem.crash_image(synced, 2, false);
        assert_eq!(read(&torn), b"rec1re\0\0");
        assert_eq!(torn.written(WAL_BASE), b"rec1re");
        assert_eq!(mem.event_append_len(synced), Some(4));
        assert_eq!(mem.event_append_len(synced + 1), None, "a fill is not data");
    }
}
