//! `benchmark compare A B`: two sets of result documents, side by side,
//! judged against the bounds in [`crate::spec`].

use crate::spec::{self, Better};
use crate::stats::{quartiles, spread};
use crate::ResultDoc;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own runs spread wider than the bound: the medians
    /// cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side `b` against side `a` (the parent).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (_, med_a, _) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
    if spread(a) > bound || spread(b) > bound {
        // Noise wider than the bound decides nothing — unless the two
        // sides do not even overlap.
        if all(&|x, y| is_better(x, y)) {
            Verdict::Ok
        } else if all(&|x, y| is_better(y, x)) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &str) -> Result<(Side, u64), String> {
    let mut side = Side::new();
    let mut clients = None;
    let entries = std::fs::read_dir(Path::new(dir)).map_err(|e| format!("read {dir}: {e}"))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: ResultDoc =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.trace || doc.smoke {
            continue; // end-to-end metrics come from full untraced runs
        }
        if !doc.correct {
            return Err(format!("{}: run failed its output checks", path.display()));
        }
        match clients {
            None => clients = Some(doc.clients),
            Some(c) if c != doc.clients => {
                return Err(format!(
                    "{dir}: runs with {c} and {} clients mixed",
                    doc.clients
                ));
            }
            Some(_) => {}
        }
        for (metric, v) in doc.metrics {
            side.entry((metric, doc.workload.clone()))
                .or_default()
                .push(v.value);
        }
    }
    let clients = clients.ok_or_else(|| format!("{dir}: no untraced result documents"))?;
    Ok((side, clients))
}

/// Print every (metric, workload) of both sides; `Ok(false)` when any
/// regressed.
pub fn run(a_dir: &str, b_dir: &str) -> Result<bool, String> {
    let (a, a_clients) = load(a_dir)?;
    let (b, b_clients) = load(b_dir)?;
    if a_clients != b_clients {
        return Err(format!(
            "results with different client counts are never compared ({a_clients} vs {b_clients})"
        ));
    }
    println!(
        "{:<28} {:<18} {:>3} {:>12} {:>25} {:>3} {:>12} {:>25} {:>6}  verdict",
        "metric",
        "workload",
        "n",
        "A median",
        "A quartiles",
        "n",
        "B median",
        "B quartiles",
        "bound"
    );
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for m in spec::END_TO_END {
        for w in spec::WORKLOADS {
            let key = (m.name.to_owned(), w.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(va, vb, m.better, bound);
            *counts.entry(verdict.as_str()).or_insert(0) += 1;
            let (a1, a2, a3) = quartiles(va);
            let (b1, b2, b3) = quartiles(vb);
            println!(
                "{:<28} {:<18} {:>3} {:>12.4} {:>25} {:>3} {:>12.4} {:>25} {:>6}  {}",
                m.name,
                w.name,
                va.len(),
                a2,
                format!("[{a1:.4}, {a3:.4}]"),
                vb.len(),
                b2,
                format!("[{b1:.4}, {b3:.4}]"),
                bound,
                verdict.as_str()
            );
        }
    }
    println!(
        "ok {}  regressed {}  unresolved {}",
        counts.get("ok").copied().unwrap_or(0),
        counts.get("regressed").copied().unwrap_or(0),
        counts.get("unresolved").copied().unwrap_or(0)
    );
    if counts.is_empty() {
        return Err("the two sets share no (metric, workload) pair".into());
    }
    Ok(!counts.contains_key("regressed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.7];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&steady, &same, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // The same numbers are a gain when higher is better.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A.
        let far_better = [10.0, 30.0, 20.0, 15.0, 25.0];
        assert_eq!(judge(&noisy, &far_better, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&far_better, &noisy, Better::Lower, 0.10),
            Verdict::Regressed
        );
    }
}
