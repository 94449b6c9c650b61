//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **quiescence** — the cost Figure 1 is about;
//! * **serialization threshold** — GCC's serialize-after-N contention
//!   policy (cf. Diegues et al. [4]);
//! * **HTM capacity** — where the capacity cliff sits for footprint-heavy
//!   transactions.

use ad_support::crit::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ad_stm::{Runtime, TVar, TmConfig};

fn bench_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(900))
        .warm_up_time(std::time::Duration::from_millis(300))
}

/// One writer committing while a second thread runs longish read
/// transactions: quiescence forces the writer to wait.
fn quiescence_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_quiesce");
    for (name, quiesce) in [("on", true), ("off", false)] {
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let rt = Runtime::new(TmConfig::stm().with_quiesce(quiesce));
                let data: Vec<TVar<u64>> = (0..256).map(|_| TVar::new(0)).collect();
                let unrelated = TVar::new(0u64);
                let stop = Arc::new(AtomicBool::new(false));

                let rt2 = rt.clone();
                let data2 = data.clone();
                let stop2 = Arc::clone(&stop);
                let reader = std::thread::spawn(move || {
                    while !stop2.load(Ordering::Relaxed) {
                        rt2.atomically(|tx| {
                            let mut s = 0u64;
                            for v in &data2 {
                                s = s.wrapping_add(tx.read(v)?);
                            }
                            Ok(s)
                        });
                    }
                });

                let start = std::time::Instant::now();
                for _ in 0..iters {
                    rt.atomically(|tx| tx.modify(&unrelated, |x| x + 1));
                }
                let elapsed = start.elapsed();
                stop.store(true, Ordering::Relaxed);
                reader.join().unwrap();
                elapsed
            })
        });
    }
    group.finish();
}

/// A conflict-heavy counter under different serialize-after thresholds.
fn serialize_threshold_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_serialize_after");
    for threshold in [2u32, 10, 100] {
        group.bench_function(format!("after_{threshold}"), |b| {
            b.iter_custom(|iters| {
                let rt = Runtime::new(
                    TmConfig::stm()
                        .with_serialize_after(threshold)
                        .with_quiesce(false),
                );
                let hot = TVar::new(0u64);
                let stop = Arc::new(AtomicBool::new(false));

                let mut contenders = Vec::new();
                for _ in 0..2 {
                    let rt2 = rt.clone();
                    let hot2 = hot.clone();
                    let stop2 = Arc::clone(&stop);
                    contenders.push(std::thread::spawn(move || {
                        while !stop2.load(Ordering::Relaxed) {
                            rt2.atomically(|tx| tx.modify(&hot2, |x| x.wrapping_add(1)));
                        }
                    }));
                }

                let start = std::time::Instant::now();
                for _ in 0..iters {
                    rt.atomically(|tx| tx.modify(&hot, |x| x.wrapping_add(1)));
                }
                let elapsed = start.elapsed();
                stop.store(true, Ordering::Relaxed);
                for h in contenders {
                    h.join().unwrap();
                }
                elapsed
            })
        });
    }
    group.finish();
}

/// Footprint transactions around the simulated-HTM capacity cliff.
fn htm_capacity_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_htm_capacity");
    for footprint_kb in [8u64, 16, 31, 33, 64] {
        group.bench_function(format!("footprint_{footprint_kb}KiB"), |b| {
            let rt = Runtime::new(TmConfig::htm()); // 32 KiB capacity
            let v = TVar::new(0u64);
            b.iter(|| {
                rt.atomically(|tx| {
                    tx.account_footprint(footprint_kb * 1024)?;
                    tx.modify(&v, |x| x.wrapping_add(1))
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_config();
    targets = quiescence_ablation, serialize_threshold_ablation, htm_capacity_ablation
}
criterion_main!(benches);
