//! The repository's benchmark: one command, five workloads, end-to-end
//! and per-layer metrics, a traced run. See README.md beside this
//! crate's manifest for the glossary, the predictions and the limits.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--clients 1|2] [--out DIR]
//! benchmark list
//! benchmark compare A B
//! ```
//!
//! `run --workload W` measures one workload in this process, prints
//! every metric as `workload metric value unit`, writes one result
//! document under `<out>/`, and ends with the one-line JSON object the
//! driver reads. Without `--workload` it re-executes itself once per
//! workload, so allocator state and `VmHWM` never leak between them.

mod compare;
mod layers;
mod lecture;
mod spec;
mod station;
mod stats;
mod tape;
mod trace;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 16.0;
/// The host has 2 cores; load is a closed loop of exactly 2 clients.
const DEFAULT_CLIENTS: usize = 2;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub clients: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles and medians.
    pub samples: BTreeMap<String, u64>,
    /// Failed output checks; any makes the command fail.
    pub errors: Vec<String>,
    /// The per-layer time table of a traced station run.
    pub table: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
    /// A time metric and its `.p99` twin from nanosecond samples,
    /// reported in microseconds, with the sample count.
    pub fn set_p50_p99(&mut self, name: &'static str, p99: &'static str, ns: &mut [u64]) {
        self.samples.insert(name.to_owned(), ns.len() as u64);
        self.set(name, stats::percentile(ns, 0.50) as f64 / 1e3);
        self.set(p99, stats::percentile(ns, 0.99) as f64 / 1e3);
    }
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.errors.push(why);
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// One result document: what `compare` reads back.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultDoc {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Results with different client counts are never compared.
    pub clients: u64,
    pub smoke: bool,
    pub host_cores: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
    pub samples: BTreeMap<String, u64>,
    pub errors: Vec<String>,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start a new high-water mark: `VmHWM` falls back to the current
/// resident set. Where `/proc/self/clear_refs` is not writable the mark
/// simply keeps rising and later readings repeat the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

struct Args {
    cfg: Cfg,
    workload: Option<&'static str>,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        cfg: Cfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            clients: DEFAULT_CLIENTS,
            smoke: false,
            out: PathBuf::from("out/benchmark"),
        },
        workload: None,
        trace: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                let known = spec::WORKLOADS.iter().find(|k| k.name == w);
                a.workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload {w}; see `benchmark list`"))?
                        .name,
                );
            }
            "--seed" => {
                a.cfg.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.cfg.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.cfg.seconds > 0.0 && a.cfg.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--clients" => {
                a.cfg.clients = value(&mut i, "--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
                if !(1..=2).contains(&a.cfg.clients) {
                    return Err(
                        "--clients must be 1 or 2 (never more than the host's cores)".into(),
                    );
                }
            }
            "--out" => a.cfg.out = PathBuf::from(value(&mut i, "--out")?),
            "--smoke" => a.cfg.smoke = true,
            "--trace" => {
                // `--trace 0|1` for the driver; bare `--trace` means 1.
                a.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// Run one workload here and report it.
fn run_one(a: &Args, workload: &'static str) -> Result<bool, String> {
    let cfg = &a.cfg;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {}: {e}", cfg.out.display()))?;
    let outcome = if workload == spec::LECTURE_BROADCAST {
        lecture::run(cfg, a.trace)?
    } else if a.trace {
        station::run_traced(cfg, workload)?
    } else {
        station::run_end_to_end(cfg, workload)?
    };
    // The contract: every end-to-end metric untraced, every per-layer
    // metric traced; a layer that did no work here reads 0.
    let wanted = if a.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut outcome = outcome;
    if a.trace {
        outcome.set(
            "bench.failed_ops_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
    }
    let mut metrics = BTreeMap::new();
    for m in wanted {
        let value = outcome.get(m.name);
        let usable = value.is_finite() && value > 0.0;
        if !a.trace && !usable {
            outcome.fail(format!("end-to-end metric {} is {value}", m.name));
        }
        println!("{workload} {} {value} {}", m.name, m.unit);
        metrics.insert(
            m.name.to_owned(),
            MetricValue {
                value,
                unit: m.unit.to_owned(),
            },
        );
    }
    if let Some(t) = &outcome.table {
        print!("{t}");
    }
    let correct = outcome.errors.is_empty();
    let doc = ResultDoc {
        workload: workload.to_owned(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: a.trace,
        clients: cfg.clients as u64,
        smoke: cfg.smoke,
        host_cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
        samples: outcome.samples.clone(),
        errors: outcome.errors.clone(),
    };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let path = cfg.out.join(format!(
        "result-{workload}-seed{}-trace{}-{stamp}.json",
        cfg.seed,
        u8::from(a.trace)
    ));
    let text = serde_json::to_string(&doc).map_err(|e| format!("encode result: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    if !correct {
        return Ok(false);
    }
    // Last line of stdout: the object the driver reads.
    let body: Vec<String> = doc
        .metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_f64(v.value),
                v.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        doc.attempted,
        doc.failed,
        body.join(", ")
    );
    Ok(true)
}

/// Shortest text that reads back as the same double.
fn json_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// No `--workload`: one child process per workload (and per trace mode
/// asked for), so nothing leaks between workloads.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let modes: &[&str] = if a.trace { &["0", "1"] } else { &["0"] };
    let mut ok = true;
    for w in spec::WORKLOADS {
        for mode in modes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", mode])
                .args(["--seed", &a.cfg.seed.to_string()])
                .args(["--seconds", &a.cfg.seconds.to_string()])
                .args(["--clients", &a.cfg.clients.to_string()])
                .arg("--out")
                .arg(&a.cfg.out);
            if a.cfg.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            spec::print_list();
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload {
            Some(w) => run_one(&a, w),
            None => run_all(&a),
        }),
        _ => Err(
            "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
             [--smoke] [--clients 1|2] [--out DIR] | benchmark list | benchmark compare A B"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
