//! `compare A.json B.json`: per (workload, end-to-end metric), both
//! medians, the ratio with its base, the bound, and a verdict that knows
//! about noise — `unresolved` when either side's own repetitions spread
//! wider than the bound, so a difference is never read off noise.

use std::fmt;
use std::process::ExitCode;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side's repetitions of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    /// Min–max spread over the repetitions, relative to the median.
    fn spread(&self) -> f64 {
        if self.max == self.min {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// `b` against base `a`. A bound of 0 marks a metric that must not move
/// at all (`failed_ops_pct`): there the worst repetition decides.
pub fn verdict(higher_is_better: bool, a: Side, b: Side, bound: f64) -> Verdict {
    // Signed so that positive means `b` is worse.
    let worse_by = |x: f64, y: f64| if higher_is_better { x - y } else { y - x };
    if bound == 0.0 {
        let d = worse_by(a.max, b.max);
        return match d.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = worse_by(a.median, b.median) / a.median.abs();
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    let f = |k| metric.get(k).and_then(Json::as_f64);
    Some(Side {
        median: f("median")?,
        min: f("min")?,
        max: f("max")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; the exit code is non-zero if any row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |j: &Json| j.get("workloads").cloned().unwrap_or(Json::obj());
    let (wa, wb) = (workloads(&a), workloads(&b));
    println!("base A = {path_a}\n     B = {path_b}");
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut counts = [0usize; 4];
    let mut unresolved = Vec::new();
    for (workload, entry_a) in wa.fields() {
        let Some(entry_b) = wb.get(workload) else {
            println!("{workload:<12} missing from B");
            continue;
        };
        let metrics_a = entry_a.get("end_to_end").cloned().unwrap_or(Json::obj());
        for (name, ma) in metrics_a.fields() {
            let Some(mb) = entry_b.get("end_to_end").and_then(|e| e.get(name)) else {
                println!("{workload:<12} {name:<24} missing from B");
                continue;
            };
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                continue;
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.10);
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            let v = verdict(higher, sa, sb, bound);
            counts[v as usize] += 1;
            let ratio = if sa.median == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.3}", sb.median / sa.median)
            };
            println!(
                "{workload:<12} {name:<24} {:>14.4} {:>14.4} {ratio:>8} {:>6.1}%  {v}",
                sa.median,
                sb.median,
                100.0 * bound
            );
            if v == Verdict::Unresolved {
                unresolved.push(format!(
                    "{workload} {name}: spread A {:.1}%, B {:.1}% over a {:.1}% bound",
                    100.0 * sa.spread(),
                    100.0 * sb.spread(),
                    100.0 * bound
                ));
            }
        }
    }
    println!(
        "\n{} better, {} same, {} worse, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    for u in &unresolved {
        println!("unresolved: {u}");
    }
    Ok(if counts[Verdict::Worse as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            min: median * 0.99,
            max: median * 1.01,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Lower is better, 10 % bound.
        assert_eq!(
            verdict(false, tight(100.0), tight(105.0), 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(false, tight(100.0), tight(115.0), 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(false, tight(100.0), tight(85.0), 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(true, tight(100.0), tight(115.0), 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(true, tight(100.0), tight(85.0), 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(true, tight(100.0), tight(95.0), 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_on_either_side_is_unresolved() {
        let noisy = Side {
            median: 100.0,
            min: 90.0,
            max: 105.0,
        };
        assert_eq!(
            verdict(false, noisy, tight(150.0), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(false, tight(100.0), noisy, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(false, noisy, tight(150.0), 0.20), Verdict::Worse);
    }

    #[test]
    fn zero_bound_metric_is_decided_by_the_worst_repetition() {
        let clean = Side {
            median: 0.0,
            min: 0.0,
            max: 0.0,
        };
        let one_bad_rep = Side {
            median: 0.0,
            min: 0.0,
            max: 0.5,
        };
        assert_eq!(verdict(false, clean, clean, 0.0), Verdict::Same);
        assert_eq!(verdict(false, clean, one_bad_rep, 0.0), Verdict::Worse);
        assert_eq!(verdict(false, one_bad_rep, clean, 0.0), Verdict::Better);
    }
}
