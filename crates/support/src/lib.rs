//! # ad-support — in-tree stand-ins for external dependencies
//!
//! The build environment for this workspace has no crates.io access, so
//! every external dependency must be vendored, stubbed, or replaced. This
//! crate provides the small, well-understood subsets the workspace actually
//! uses:
//!
//! * [`args`] — `--name value` command-line lookup for the workspace's
//!   binaries (a `clap` stand-in) that exits with status 2 on a forgotten
//!   or unparsable value instead of falling back to the default.
//! * [`sync`] — `Mutex`, `RwLock`, and `Condvar` with the `parking_lot`
//!   calling convention (no poisoning, `lock()` returns the guard directly),
//!   implemented over `std::sync`.
//! * [`channel`] — a bounded MPMC channel with `crossbeam_channel`-style
//!   cloneable senders *and* receivers and disconnect semantics.
//! * [`prng`] — a seedable SplitMix64 generator replacing the small part of
//!   `rand` the corpus generator and the randomized tests need.
//! * [`crit`] — a miniature Criterion-compatible benchmark harness
//!   (`criterion_group!` / `criterion_main!`, `bench_function`,
//!   `iter`/`iter_custom`, benchmark groups) that prints per-iteration
//!   timings and can emit machine-readable JSON.
//! * [`hist`] — concurrent log-bucketed latency histograms (an
//!   `hdrhistogram` stand-in) backing the `ad-stm` observability layer.
//! * [`crc32`] — table-driven CRC-32 (IEEE), the `ad-kv` WAL record
//!   checksum (a `crc32fast` stand-in).
//! * [`hash`] — FNV-1a and a 64-bit finalizer: the one key hash shared by
//!   the shard router's partition function and the store's lock striping.
//! * [`model`] — a vendored loom-style concurrency model checker (token
//!   scheduler, instrumented primitives, poison registry) backing the
//!   `--cfg loom` face of [`sync`] and the `verify` model suites.
//! * [`pool`] — a bounded-queue worker pool (blocking submit, panic
//!   isolation), the `ad-net` server's connection executor. Not built
//!   under `--cfg loom`: it spawns real OS threads.
//! * [`tsc`] — a coarse, cheap monotonic nanosecond source (calibrated
//!   x86 `rdtsc` with an `Instant` fallback) for hot-path trace
//!   timestamps (a `quanta`-style stand-in).
//!
//! Everything except the lock internals of [`model`] and the two
//! register-read intrinsics in [`tsc`] is safe Rust with no dependencies,
//! so it can never be the thing that breaks an offline build.
//!
//! ## The `loom` cfg
//!
//! Building the workspace with `RUSTFLAGS="--cfg loom"` swaps the [`sync`]
//! primitives (including [`sync::atomic`]) from thin `std` passthroughs to
//! the instrumented [`model`] versions, so the `verify` model suites in
//! `ad-stm`/`ad-defer` can explore interleavings of the real production
//! code. Release builds without the cfg compile the facade away entirely.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod channel;
pub mod crc32;
pub mod crit;
pub mod hash;
pub mod hist;
pub mod model;
#[cfg(not(loom))]
pub mod pool;
pub mod prng;
pub mod sync;
pub mod tsc;
