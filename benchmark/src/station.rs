//! The four station workloads: build and seed a station, run the
//! clients' tapes against it in a closed loop, check what it holds, and
//! — on the durable workload — crash it and time the reopen.

use crate::spec::{AUTHORING_DURABLE, AUTHORING_MEM, AUTHORING_SHARDED, BROWSE_MVCC};
use crate::stats::{better_third, lower_quartile, median_f64, percentile, slice_median_percentile};
use crate::tape::{self, Op, Plan, Tape};
use crate::trace::{self, Counts, Span, TracedBackend, TracedSink};
use crate::{layers, Cfg, Outcome};
use obs::Registry;
use relstore::{AnyEngine, EngineKind, PoolConfig, Predicate};
use shard::ShardedBackend;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wdoc_core::ids::ScriptName;
use wdoc_core::tables::{BugReport, Script, TestRecord};
use wdoc_core::WebDocDb;

/// Latency percentiles are medians over this many consecutive slices
/// of the timed tape.
pub const SLICES: usize = 5;
pub const SHARDS: u32 = 4;
/// Repetitions of an untraced run per `--seconds` second (8 at the 16
/// of `BENCHMARK.json`); every end-to-end metric is their third best
/// ([`better_third`]). The host's disturbed stretches last 10 to 30
/// seconds: the repetitions have to outlast one for two of them to be
/// clean.
const REPS_PER_SECOND: f64 = 0.5;
/// Reopens of the durable workload's crash image; `recovery_s` is the
/// second fastest.
const REOPENS: usize = 3;
/// Rebuilds of an in-memory station after each repetition; their
/// `recovery_s` is the lower quartile of all the batches.
const REBUILDS_PER_REP: usize = 5;
/// Verbs of client 0's tape the mem/sharded dump-parity check replays.
const PARITY_PREFIX: usize = 2_000;

/// Verbs per client per repetition: calibrated once, at the commit
/// that added the benchmark, on 2 cores with 2 clients, so a timed
/// tape takes about `1 / REPS_PER_SECOND` seconds there and the
/// repetitions together about `--seconds`. Fixed work, not a time box:
/// throughput here depends on table size, so only equal tapes compare,
/// and `--seconds` buys repetitions, never a longer tape.
/// `authoring_mem` and `authoring_sharded` share one tape; it is sized
/// so the two straddle the target.
fn verbs_per_client(workload: &str) -> usize {
    match workload {
        AUTHORING_MEM | AUTHORING_SHARDED => 16_000,
        AUTHORING_DURABLE => 3_000,
        BROWSE_MVCC => 6_000,
        _ => unreachable!("station workload"),
    }
}

fn repetitions(cfg: &Cfg) -> usize {
    if cfg.smoke {
        1
    } else {
        (cfg.seconds * REPS_PER_SECOND).round().max(1.0) as usize
    }
}

fn plan_of(workload: &str) -> &'static Plan {
    match workload {
        AUTHORING_MEM | AUTHORING_SHARDED => &tape::AUTHORING,
        AUTHORING_DURABLE => &tape::DURABLE,
        BROWSE_MVCC => &tape::BROWSE,
        _ => unreachable!("station workload"),
    }
}

/// Resident-page budget of the durable station's buffer pool: about a
/// third of the pages the tape leaves behind, so the data is larger
/// than the program's own cache (measured with an unbounded pool at
/// the calibration commit: 135 pages seeded, one more per 100 verbs).
fn pool_pages(total_verbs: usize) -> usize {
    (135 + total_verbs / 100) / 3
}

/// A built station and the handles the benchmark reads it through.
pub struct Station {
    pub db: WebDocDb,
    /// Shared handles to the engine(s) under the facade.
    pub engines: Vec<AnyEngine>,
    pub router: Option<Registry>,
    pub wal_metrics: Option<Registry>,
    pub wal: Option<Arc<wal::Wal>>,
    pub dir: Option<PathBuf>,
    pub counts: Arc<Counts>,
    pub pool_pages: usize,
}

/// The durable station's log options. `sync_data` is off: this host's
/// disk syncs in 0.1 ms or in 2 ms depending on the minute, and with
/// real syncs every write-path number followed the disk (`ops_per_s`
/// halved and spread 113 % over ten runs). Every commit still goes
/// through the same append, group-commit and `write` path and reaches
/// the OS before it is acknowledged; only the device wait is left out,
/// which is the sandbox's and not the program's. Segment seals, the
/// checkpoint and reopening still sync.
fn wal_options(dir: &Path, pages: usize, metrics: Registry) -> wal::WalOptions {
    wal::WalOptions {
        sync_data: false,
        pool: PoolConfig::log(dir.join("pages.d"), pages),
        metrics,
        ..wal::WalOptions::default()
    }
}

/// The facade over `backend`, behind the tracing decorator when
/// `traced`.
fn facade<B: wdoc_core::DocBackend + 'static>(
    backend: B,
    traced: Option<(&'static trace::Names, &Arc<Counts>)>,
    install_schemas: bool,
) -> wdoc_core::Result<WebDocDb> {
    match traced {
        Some((names, counts)) => WebDocDb::on_backend(
            Box::new(TracedBackend::new(backend, names, counts.clone())),
            install_schemas,
        ),
        None => WebDocDb::on_backend(Box::new(backend), install_schemas),
    }
}

/// Build (not seed) the station of `workload`. `traced` installs the
/// decorators; `dir` roots the durable station; `router` is the
/// registry a sharded station's router records into.
pub fn build(
    workload: &str,
    traced: bool,
    dir: Option<&Path>,
    router: Registry,
    pages: usize,
) -> Result<Station, String> {
    let counts = Arc::new(Counts::default());
    let err = |e: wdoc_core::CoreError| format!("open {workload} station: {e}");
    let decorate = |names| traced.then_some((names, &counts));
    let plain = |db, engines| Station {
        db,
        engines,
        router: None,
        wal_metrics: None,
        wal: None,
        dir: None,
        counts: counts.clone(),
        pool_pages: 0,
    };
    Ok(match workload {
        AUTHORING_MEM | BROWSE_MVCC => {
            let engine = AnyEngine::new(if workload == BROWSE_MVCC {
                EngineKind::Mvcc
            } else {
                EngineKind::TwoPl
            });
            let db = facade(engine.clone(), decorate(&trace::RELSTORE), true).map_err(err)?;
            plain(db, vec![engine])
        }
        AUTHORING_SHARDED => {
            let backend = ShardedBackend::new(EngineKind::TwoPl, SHARDS, router.clone());
            let engines = (0..SHARDS as usize)
                .map(|s| backend.router().engine(s).clone())
                .collect();
            let db = facade(backend, decorate(&trace::SHARD), true).map_err(err)?;
            Station {
                router: Some(router),
                ..plain(db, engines)
            }
        }
        AUTHORING_DURABLE => {
            let dir = dir.expect("durable station needs a directory");
            let metrics = Registry::new();
            let opts = wal_options(dir, pages, metrics.clone());
            let log_cfg = logstore::LogConfig::default();
            let (db, engine, wal) = if traced {
                // `open_durable_logged` has no seam for a backend
                // decorator, so the traced station is assembled from
                // the same parts: the segmented WAL and pooled engine
                // of `open_durable_any` under `on_backend`. Its BLOB
                // layer stays in memory (README, limits), and
                // [`Station::checkpoint`] checkpoints the log itself.
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let opts = wal::WalOptions {
                    segment_bytes: Some(log_cfg.segment_bytes),
                    ..opts
                };
                let (engine, wal, report) = wal::open_durable_any(&dir.join("wal.d"), opts)
                    .map_err(|e| format!("open traced durable station: {e}"))?;
                TracedSink::install(&engine);
                let fresh = report.records_scanned == 0;
                let db = facade(engine.clone(), decorate(&trace::RELSTORE), fresh).map_err(err)?;
                (db, engine, wal)
            } else {
                let (db, _report) =
                    WebDocDb::open_durable_logged(dir, opts, log_cfg).map_err(err)?;
                let engine = db.relational().clone();
                let wal = db.wal().expect("durable station has a log").clone();
                (db, engine, wal)
            };
            Station {
                wal_metrics: Some(metrics),
                wal: Some(wal),
                dir: Some(dir.to_owned()),
                pool_pages: pages,
                ..plain(db, vec![engine])
            }
        }
        _ => unreachable!("station workload"),
    })
}

impl Station {
    /// Sum of a counter over the engines' registries (and the router's
    /// and the log's, which use other names).
    pub fn counter(&self, name: &str) -> u64 {
        let engines: u64 = self.engines.iter().map(|e| e.metrics().counter(name)).sum();
        let router = self.router.as_ref().map_or(0, |r| r.counter(name));
        let wal = self.wal_metrics.as_ref().map_or(0, |r| r.counter(name));
        engines + router + wal
    }

    /// What the tape's `Checkpoint` op does on this station.
    fn checkpoint(&self) -> Result<(), String> {
        match (&self.wal, self.db.wal()) {
            // The traced station's facade does not own the log.
            (Some(wal), None) => wal
                .checkpoint_any(&self.engines[0])
                .map(|_| ())
                .map_err(|e| e.to_string()),
            _ => self.db.checkpoint().map(|_| ()).map_err(|e| e.to_string()),
        }
    }

    fn counters(&self, names: &[&'static str]) -> BTreeMap<&'static str, u64> {
        names.iter().map(|n| (*n, self.counter(n))).collect()
    }
}

const COUNTERS: &[&str] = &[
    "relstore.select.rows_examined",
    "relstore.lock.waits",
    "relstore.lock.wait_die_aborts",
    "relstore.txn.commits",
    "relstore.mvcc.write_conflicts",
    "relstore.mvcc.gc_reclaimed",
    "relstore.pool.hits",
    "relstore.pool.misses",
    "relstore.pool.evictions",
    "relstore.pool.writeback_bytes",
    "shard.router.txns",
    "shard.router.retries",
    "shard.router.single_shard_commits",
    "shard.router.cross_shard_commits",
    "shard.router.unique_probe_skips",
    "shard.router.scatter_checks",
    "shard.router.scatter_batched",
    "shard.router.routed_selects",
    "wal.segments_pruned",
    "wal.bytes_reclaimed",
];

/// One set-up: generate the tapes, build and seed the station.
pub struct Setup {
    pub station: Station,
    pub tapes: Vec<Tape>,
    /// User bytes the seeding verbs wrote.
    pub seed_bytes: u64,
    pub total_s: f64,
    pub tape_gen_s: f64,
}

pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join("tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }
    pub fn dir(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{label}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn tape_len(cfg: &Cfg, workload: &str, halved: bool) -> usize {
    let mut len = verbs_per_client(workload);
    if halved {
        len /= 2;
    }
    if cfg.smoke {
        len /= 50;
    }
    len.max(200)
}

fn set_up(
    cfg: &Cfg,
    workload: &str,
    len: usize,
    traced: bool,
    scratch: &mut Scratch,
    router: Registry,
) -> Result<Setup, String> {
    let plan = plan_of(workload);
    let t0 = Instant::now();
    let tapes: Vec<Tape> = (0..cfg.clients)
        .map(|c| tape::generate(plan, cfg.seed, c, len))
        .collect();
    let tape_gen_s = t0.elapsed().as_secs_f64();
    let dir = (workload == AUTHORING_DURABLE).then(|| scratch.dir("station"));
    let pages = pool_pages(len * cfg.clients);
    let station = build(workload, traced, dir.as_deref(), router, pages)?;
    let seed_bytes =
        tape::seed_station(&station.db, plan.families).map_err(|e| format!("seed: {e}"))?;
    Ok(Setup {
        station,
        tapes,
        seed_bytes,
        total_s: t0.elapsed().as_secs_f64(),
        tape_gen_s,
    })
}

/// What a kill costs an in-memory station: nothing of it survives, so
/// it is built and seeded again. Seconds of one such rebuild.
fn rebuild_s(workload: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let station = build(workload, false, None, Registry::new(), 0)?;
    tape::seed_station(&station.db, plan_of(workload).families)
        .map_err(|e| format!("seed: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// What the clients measured.
pub struct Run {
    pub wall_s: f64,
    /// Per slice of the timed tape: the clients' verb rates, summed.
    pub slice_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub timed_verbs: u64,
    pub user_bytes: u64,
    pub reads: Vec<Vec<u64>>,
    pub writes: Vec<Vec<u64>>,
    pub checkpoint_ms: f64,
    pub first_error: Option<String>,
    pub spans: Vec<Vec<Span>>,
}

impl Run {
    /// Verbs per second: the median over the tape's slices of the
    /// clients' summed rates. In a closed loop the station's rate is
    /// the sum of its callers' rates; taking it per slice keeps one
    /// disturbed stretch, and the tail where one client has finished
    /// and the other runs alone, out of the number.
    pub fn ops_per_s(&self) -> f64 {
        median_f64(&mut self.slice_rates.clone())
    }
}

struct ClientRun {
    start: Instant,
    end: Instant,
    attempted: u64,
    failed: u64,
    timed_verbs: u64,
    user_bytes: u64,
    reads: Vec<Vec<u64>>,
    writes: Vec<Vec<u64>>,
    /// When this client finished each slice of its timed tape.
    slice_ends: Vec<Instant>,
    checkpoint_ms: f64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

/// Closed loop: each client issues its next verb when the previous one
/// returned. The first 5 % of each tape is warm-up; the clock starts
/// when every client has finished its own.
pub fn run_clients(station: &Station, tapes: &[Tape], traced: bool) -> Run {
    let barrier = Barrier::new(tapes.len());
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = tapes
            .iter()
            .map(|tape| {
                let barrier = &barrier;
                s.spawn(move || run_client(station, tape, traced, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = results.iter().map(|r| r.start).min().expect("a client");
    let end = results.iter().map(|r| r.end).max().expect("a client");
    let mut run = Run {
        wall_s: (end - start).as_secs_f64(),
        slice_rates: vec![0.0; SLICES],
        attempted: 0,
        failed: 0,
        timed_verbs: 0,
        user_bytes: 0,
        reads: vec![Vec::new(); SLICES],
        writes: vec![Vec::new(); SLICES],
        checkpoint_ms: 0.0,
        first_error: None,
        spans: Vec::new(),
    };
    for r in results {
        let mut from = r.start;
        for (k, to) in r.slice_ends.iter().enumerate() {
            let verbs = r.reads[k].len() + r.writes[k].len();
            run.slice_rates[k] += verbs as f64 / (*to - from).as_secs_f64();
            from = *to;
        }
        run.attempted += r.attempted;
        run.failed += r.failed;
        run.timed_verbs += r.timed_verbs;
        run.user_bytes += r.user_bytes;
        for k in 0..SLICES {
            run.reads[k].extend_from_slice(&r.reads[k]);
            run.writes[k].extend_from_slice(&r.writes[k]);
        }
        run.checkpoint_ms = run.checkpoint_ms.max(r.checkpoint_ms);
        if run.first_error.is_none() {
            run.first_error = r.first_error;
        }
        run.spans.push(r.spans);
    }
    run
}

fn run_client(station: &Station, tape: &Tape, traced: bool, barrier: &Barrier) -> ClientRun {
    let db = &station.db;
    let warm = tape.warmup_len();
    let timed = tape.ops.len() - warm;
    let mut out = ClientRun {
        start: Instant::now(),
        end: Instant::now(),
        attempted: 0,
        failed: 0,
        timed_verbs: 0,
        user_bytes: 0,
        reads: vec![Vec::new(); SLICES],
        writes: vec![Vec::new(); SLICES],
        slice_ends: Vec::with_capacity(SLICES),
        checkpoint_ms: 0.0,
        first_error: None,
        spans: Vec::new(),
    };
    let issue = |out: &mut ClientRun, i: usize| -> u64 {
        let op = &tape.ops[i];
        let t = Instant::now();
        let res = {
            let _verb = trace::span(op.span_name());
            match op {
                Op::Checkpoint => station.checkpoint().map(|()| 0),
                _ => tape::apply(db, tape, i).map_err(|e| e.to_string()),
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        if matches!(op, Op::Checkpoint) {
            out.checkpoint_ms = ns as f64 / 1e6;
            if let Err(e) = res {
                out.first_error.get_or_insert(format!("checkpoint: {e}"));
                out.failed += 1;
            }
            return 0;
        }
        out.attempted += 1;
        match res {
            Ok(bytes) => out.user_bytes += bytes,
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert(format!("{op:?}: {e}"));
            }
        }
        ns
    };
    for i in 0..warm {
        issue(&mut out, i);
    }
    barrier.wait();
    if traced {
        trace::start_thread();
    }
    out.start = Instant::now();
    for i in warm..tape.ops.len() {
        trace::set_req(i as u32);
        let ns = issue(&mut out, i);
        if matches!(tape.ops[i], Op::Checkpoint) {
            continue;
        }
        out.timed_verbs += 1;
        let slice = (i - warm) * SLICES / timed;
        if slice > out.slice_ends.len() {
            out.slice_ends.push(Instant::now());
        }
        if tape.ops[i].is_read() {
            out.reads[slice].push(ns);
        } else {
            out.writes[slice].push(ns);
        }
    }
    out.end = Instant::now();
    out.slice_ends.resize(SLICES, out.end);
    out.spans = trace::finish_thread();
    out
}

// --------------------------------------------------------------- checks

/// Every station table, every committed row, row ids included.
pub fn dump(db: &WebDocDb) -> Result<String, String> {
    let mut out = String::new();
    for schema in WebDocDb::station_schemas() {
        let rows = db
            .with_txn(|t| t.select(&schema.name, &Predicate::True))
            .map_err(|e| format!("dump {}: {e}", schema.name))?;
        out.push_str(&format!("== {}\n", schema.name));
        for (id, row) in rows {
            out.push_str(&format!("{id:?} {row:?}\n"));
        }
    }
    Ok(out)
}

fn first_difference(a: &str, b: &str) -> String {
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()));
    format!(
        "line {line}: {:?} vs {:?}",
        a.lines().nth(line).unwrap_or("<end>"),
        b.lines().nth(line).unwrap_or("<end>")
    )
}

/// Per-table row counts equal seeded + acknowledged inserts −
/// acknowledged cascades, and every test record and bug report has its
/// parent.
pub fn check_rows(db: &WebDocDb, tapes: &[Tape], families: u32) -> Result<(), String> {
    let mut want = tape::seeded_rows(families);
    for t in tapes {
        for (table, d) in &t.model.rows {
            *want.get_mut(table).expect("station table") += d;
        }
    }
    for (table, n) in &want {
        let got = db
            .with_txn(|t| t.count(table, &Predicate::True))
            .map_err(|e| format!("count {table}: {e}"))? as i64;
        if got != *n {
            return Err(format!("{table}: {got} rows, expected {n}"));
        }
    }
    let names = |table: &str, col: usize| -> Result<Vec<String>, String> {
        let rows = db
            .with_txn(|t| t.select(table, &Predicate::True))
            .map_err(|e| format!("select {table}: {e}"))?;
        Ok(rows
            .iter()
            .map(|(_, r)| r[col].as_text().unwrap_or_default().to_owned())
            .collect())
    };
    let scripts: BTreeSet<String> = names(Script::TABLE, 0)?.into_iter().collect();
    if let Some(orphan) = names(TestRecord::TABLE, 3)?
        .into_iter()
        .find(|s| !scripts.contains(s))
    {
        return Err(format!("test record under missing script {orphan}"));
    }
    drop(scripts);
    let records: BTreeSet<String> = names(TestRecord::TABLE, 0)?.into_iter().collect();
    if let Some(orphan) = names(BugReport::TABLE, 8)?
        .into_iter()
        .find(|t| !records.contains(t))
    {
        return Err(format!("bug report under missing test record {orphan}"));
    }
    Ok(())
}

/// The same single-client tape prefix leaves byte-identical dumps (row
/// ids included) on the bare engine and on the 4-shard router.
fn check_parity(cfg: &Cfg) -> Result<(), String> {
    let plan = &tape::AUTHORING;
    let len = tape_len(cfg, AUTHORING_MEM, false).min(PARITY_PREFIX);
    let tape = tape::generate(plan, rep_seed(cfg.seed, 0), 0, len);
    let mut dumps = Vec::new();
    for workload in [AUTHORING_MEM, AUTHORING_SHARDED] {
        let st = build(workload, false, None, Registry::new(), 0)?;
        tape::seed_station(&st.db, plan.families).map_err(|e| format!("seed: {e}"))?;
        for i in 0..tape.ops.len() {
            tape::apply(&st.db, &tape, i).map_err(|e| format!("parity {:?}: {e}", tape.ops[i]))?;
        }
        dumps.push(dump(&st.db)?);
    }
    if dumps[0] != dumps[1] {
        return Err(format!(
            "station dumps differ between the bare engine and the {SHARDS}-shard router after {len} verbs: {}",
            first_difference(&dumps[0], &dumps[1])
        ));
    }
    Ok(())
}

// ------------------------------------------------------ durable station

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dst = to.join(e.file_name());
        if e.metadata()?.is_dir() {
            copy_dir(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), dst)?;
        }
    }
    Ok(())
}

/// Cut the segmented log under `wal_dir` at `lsn`: what a crash leaves
/// when only synced bytes survive. (Killing the process would leave the
/// OS cache intact and hide unflushed bytes.)
fn cut_log(wal_dir: &Path, lsn: u64) -> std::io::Result<()> {
    for e in std::fs::read_dir(wal_dir)? {
        let path = e?.path();
        let base = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("wal-"))
            .and_then(|n| n.strip_suffix(".seg"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        let Some(base) = base else { continue };
        if base >= lsn {
            std::fs::remove_file(&path)?;
        } else {
            let keep = wal::segments::SEG_HEADER as u64 + (lsn - base);
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            if file.metadata()?.len() > keep {
                file.set_len(keep)?;
            }
        }
    }
    Ok(())
}

pub struct Recovery {
    pub recovery_s: f64,
    pub analysis_ms: f64,
    pub redo_ms: f64,
    pub undo_ms: f64,
    pub peak_rss_mb: f64,
}

/// Crash the durable station and reopen the image `reopens` times,
/// each from a fresh copy (a reopen appends to what it opens); the
/// reported times are the second-fastest reopen's. Every acknowledged row
/// verb, and every BLOB still attached, must read back.
fn crash_and_recover(
    setup: Setup,
    scratch: &mut Scratch,
    reopens: usize,
) -> Result<(Recovery, u64, u64), String> {
    let Setup { station, tapes, .. } = setup;
    // Only the ids of what is still attached are needed from here on:
    // a BLOB's id is its content hash. Dropping the payloads keeps the
    // tape's copy and the reopened store's copy from adding up in RSS.
    let attached: Vec<blobstore::BlobId> = tapes
        .iter()
        .flat_map(|t| {
            t.model
                .attached
                .iter()
                .map(|(_, payload, _)| blobstore::BlobId::of(&t.payloads[*payload as usize].1))
        })
        .collect();
    drop(tapes);
    let dir = station.dir.clone().expect("durable station");
    let wal = station.wal.clone().expect("durable station");
    wal.flush().map_err(|e| format!("flush: {e}"))?;
    let durable = wal.durable_lsn();
    let disk = dir_bytes(&dir);
    // Every page evicted at least once is in the page store; with a
    // pool a third of the data that is nearly all of them.
    let final_pages = station.engines[0].as_two_pl().map_or(0, |d| {
        (d.pool().store_page_count() as u64).max(d.pool().stats().resident_pages)
    });
    let live = dump(&station.db)?;
    let image = scratch.dir("crash");
    copy_dir(&dir, &image).map_err(|e| format!("copy station: {e}"))?;
    cut_log(&image.join("wal.d"), durable).map_err(|e| format!("cut log: {e}"))?;
    let pages = station.pool_pages;
    drop(wal);
    drop(station);
    let _ = std::fs::remove_dir_all(&dir);

    let mut recoveries = Vec::new();
    for n in 0..reopens {
        let copy = scratch.dir("reopen");
        copy_dir(&image, &copy).map_err(|e| format!("copy crash image: {e}"))?;
        let metrics = Registry::new();
        crate::reset_peak_rss();
        let t0 = Instant::now();
        let (db, _report) = WebDocDb::open_durable_logged(
            &copy,
            wal_options(&copy, pages, metrics.clone()),
            logstore::LogConfig::default(),
        )
        .map_err(|e| format!("reopen crash image: {e}"))?;
        db.script(&ScriptName::new(tape::script_name(0, tape::Fam::Seeded(0))))
            .map_err(|e| format!("first read after recovery: {e}"))?;
        let recovery_s = t0.elapsed().as_secs_f64();
        let peak_rss_mb = crate::peak_rss_mb();
        if n == 0 {
            let recovered = dump(&db)?;
            if recovered != live {
                return Err(format!(
                    "crash image lost acknowledged verbs: {}",
                    first_difference(&live, &recovered)
                ));
            }
            for id in &attached {
                if db.blobs().get(*id).map(|data| blobstore::BlobId::of(&data)) != Some(*id) {
                    return Err(format!(
                        "attached BLOB {id} did not read back after the crash"
                    ));
                }
            }
        }
        let gauge_ms = |name: &str| metrics.gauge(name).unwrap_or(0) as f64 / 1e3;
        recoveries.push(Recovery {
            recovery_s,
            analysis_ms: gauge_ms("wal.recover.analysis_us"),
            redo_ms: gauge_ms("wal.recover.redo_us"),
            undo_ms: gauge_ms("wal.recover.undo_us"),
            peak_rss_mb,
        });
        drop(db);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let least_rss = recoveries
        .iter()
        .map(|r| r.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    recoveries.sort_by(|a, b| a.recovery_s.total_cmp(&b.recovery_s));
    let mut second = recoveries.swap_remove(1.min(recoveries.len() - 1));
    second.peak_rss_mb = least_rss;
    Ok((second, disk, final_pages))
}

// ------------------------------------------------------------- the runs

/// Per class, the median over the tape's slices of each slice's p50
/// and p99, in microseconds.
struct Latencies {
    read_p50: f64,
    read_p99: f64,
    write_p50: f64,
    write_p99: f64,
}

fn latencies(run: &mut Run) -> Latencies {
    let us = |slices: &mut [Vec<u64>], p| slice_median_percentile(slices, p) / 1e3;
    Latencies {
        read_p50: us(&mut run.reads, 0.50),
        read_p99: us(&mut run.reads, 0.99),
        write_p50: us(&mut run.writes, 0.50),
        write_p99: us(&mut run.writes, 0.99),
    }
}

/// Heap and BLOB bytes an in-memory station holds per user byte.
fn stored_bytes(station: &Station, user_bytes: u64) -> Result<f64, String> {
    let s = station.db.storage().map_err(|e| format!("storage: {e}"))?;
    Ok((s.document_bytes + s.blob_physical_bytes) as f64 / user_bytes.max(1) as f64)
}

fn fail_run(out: &mut Outcome, run: &Run) {
    out.attempted += run.attempted;
    out.failed += run.failed;
    if run.failed > 0 {
        out.fail(format!(
            "{} of {} verbs failed; first: {}",
            run.failed,
            run.attempted,
            run.first_error.as_deref().unwrap_or("?")
        ));
    }
}

/// The seed of repetition `rep`: every repetition runs its own tapes,
/// so the medians an invocation reports average over tapes as well as
/// over the host's noise. (Zipf-hot families collect test records, and
/// what `update_script` costs grows with them: one tape's total is a
/// heavy-tailed sum that moves several percent from seed to seed.)
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (rep as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `--trace 0`: the end-to-end metrics, each the [`better_third`] of the
/// [`repetitions`] (`peak_rss_mb`: the high-water mark is restarted per
/// repetition and the lowest is reported; `recovery_s`: see
/// [`REOPENS`] and [`REBUILDS_PER_REP`]) — fresh tapes, fresh station, one untraced run.
pub fn run_end_to_end(cfg: &Cfg, workload: &'static str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut scratch = Scratch::new(&cfg.out).map_err(|e| e.to_string())?;
    if matches!(workload, AUTHORING_MEM | AUTHORING_SHARDED) {
        if let Err(e) = check_parity(cfg) {
            out.fail(e);
        }
    }
    let len = tape_len(cfg, workload, false);
    let reps = repetitions(cfg);
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut recovery = None;
    let mut rebuilds = Vec::new();
    for rep in 0..reps {
        let cfg = Cfg {
            seed: rep_seed(cfg.seed, rep),
            ..cfg.clone()
        };
        crate::reset_peak_rss();
        let setup = set_up(&cfg, workload, len, false, &mut scratch, Registry::new())?;
        let mut run = run_clients(&setup.station, &setup.tapes, false);
        let peak_rss_mb = crate::peak_rss_mb();
        fail_run(&mut out, &run);
        if let Err(e) = check_rows(&setup.station.db, &setup.tapes, plan_of(workload).families) {
            out.fail(e);
        }
        let lat = latencies(&mut run);
        for (class, slices) in [
            ("read_latencies", &run.reads),
            ("write_latencies", &run.writes),
        ] {
            *out.samples.entry(class.into()).or_insert(0) +=
                slices.iter().map(Vec::len).sum::<usize>() as u64;
        }
        *out.samples.entry("timed_verbs".into()).or_insert(0) += run.timed_verbs;
        let user = setup.seed_bytes + run.user_bytes;
        let stored = match &setup.station.dir {
            Some(dir) => dir_bytes(dir) as f64 / user.max(1) as f64,
            None => stored_bytes(&setup.station, user)?,
        };
        for (name, v) in [
            ("setup_s", setup.total_s),
            ("ops_per_s", run.ops_per_s()),
            ("read_p50_us", lat.read_p50),
            ("write_p50_us", lat.write_p50),
            ("stored_bytes_per_user_byte", stored),
            ("peak_rss_mb", peak_rss_mb),
        ] {
            per_rep.entry(name).or_default().push(v);
        }
        if workload != AUTHORING_DURABLE {
            // A rebuild takes tens of milliseconds: many of them, in a
            // batch after every repetition so that a disturbed stretch
            // of the invocation meets a part of the sample only.
            drop(setup);
            for _ in 0..if cfg.smoke { 1 } else { REBUILDS_PER_REP } {
                rebuilds.push(rebuild_s(workload)?);
            }
        } else if rep + 1 == reps {
            // The reopen is the long pole of the durable workload: crash
            // the last repetition's station only.
            let reopens = if cfg.smoke { 1 } else { REOPENS };
            match crash_and_recover(setup, &mut scratch, reopens) {
                Ok((rec, _, _)) => recovery = Some(rec.recovery_s),
                Err(e) => out.fail(e),
            }
        }
    }
    out.samples.insert("repetitions".into(), reps as u64);
    for (name, values) in &per_rep {
        out.set(name, better_third(values, *name == "ops_per_s"));
    }
    // Memory noise is one-sided too, and nothing about the lowest mark
    // is luck: what the allocator keeps from earlier repetitions and
    // the timing of background merges only ever add to it. A real
    // increase raises every repetition's.
    out.set(
        "peak_rss_mb",
        per_rep["peak_rss_mb"]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    out.samples.insert("rebuilds".into(), rebuilds.len() as u64);
    out.set(
        "recovery_s",
        recovery.unwrap_or_else(|| lower_quartile(&rebuilds)),
    );
    Ok(out)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `--trace 1`: the per-layer metrics. An untraced run of a
/// half-length tape gives the registry counts (and the base of the
/// tracing overhead); the same tape on a decorated station gives the
/// spans; direct replays give the layers no verb reaches alone.
pub fn run_traced(cfg: &Cfg, workload: &'static str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut scratch = Scratch::new(&cfg.out).map_err(|e| e.to_string())?;
    let plan = plan_of(workload);
    let len = tape_len(cfg, workload, true);
    // The tapes of the untraced run's first repetition, halved.
    let cfg = &Cfg {
        seed: rep_seed(cfg.seed, 0),
        ..cfg.clone()
    };
    out.set("bench.clients", cfg.clients as f64);

    // ---- untraced half
    let setup = set_up(cfg, workload, len, false, &mut scratch, Registry::new())?;
    out.set("bench.tape_gen_s", setup.tape_gen_s);
    let before = setup.station.counters(COUNTERS);
    let mut base = run_clients(&setup.station, &setup.tapes, false);
    let after = setup.station.counters(COUNTERS);
    let delta = |name: &str| after[name] - before[name];
    fail_run(&mut out, &base);
    out.set("bench.verbs_per_s", base.ops_per_s());
    let mut all_reads: Vec<u64> = base.reads.concat();
    let mut all_writes: Vec<u64> = base.writes.concat();
    out.set(
        "bench.read_p999_us",
        percentile(&mut all_reads, 0.999) as f64 / 1e3,
    );
    out.set(
        "bench.write_p999_us",
        percentile(&mut all_writes, 0.999) as f64 / 1e3,
    );
    let lat = latencies(&mut base);
    out.set("bench.read_p99_us", lat.read_p99);
    out.set("bench.write_p99_us", lat.write_p99);
    if let Err(e) = check_rows(&setup.station.db, &setup.tapes, plan.families) {
        out.fail(e);
    }
    let commits = delta("relstore.txn.commits");
    out.set(
        "relstore.lock_waits_per_txn",
        ratio(delta("relstore.lock.waits"), commits),
    );
    out.set(
        "relstore.waitdie_aborts_per_txn",
        ratio(delta("relstore.lock.wait_die_aborts"), commits),
    );
    out.set(
        "relstore.mvcc.conflicts_per_txn",
        ratio(delta("relstore.mvcc.write_conflicts"), commits),
    );
    out.set(
        "relstore.mvcc.versions_reclaimed",
        delta("relstore.mvcc.gc_reclaimed") as f64,
    );
    if workload == AUTHORING_SHARDED {
        let single = delta("shard.router.single_shard_commits");
        let cross = delta("shard.router.cross_shard_commits");
        out.set("shard.cross_shard_share", ratio(cross, single + cross));
        out.set(
            "shard.retries_per_txn",
            ratio(delta("shard.router.retries"), delta("shard.router.txns")),
        );
        let skips = delta("shard.router.unique_probe_skips");
        out.set(
            "shard.unique_probe_skip_share",
            ratio(skips, skips + delta("shard.router.scatter_checks")),
        );
        let batched = delta("shard.router.scatter_batched");
        out.set(
            "shard.scatter_batched_per_verb",
            ratio(batched, base.timed_verbs),
        );
        let routed = delta("shard.router.routed_selects");
        out.set("shard.routed_select_share", ratio(routed, routed + batched));
        let reg = setup.station.router.as_ref().expect("sharded station");
        let t = Instant::now();
        std::hint::black_box(reg.snapshot());
        out.set("obs.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    layers::alerts_for(&mut out, &setup.station.db, plan.families, cfg.seed);
    if workload == BROWSE_MVCC {
        layers::library(&mut out, plan.families);
    }
    if workload == AUTHORING_DURABLE {
        let hits = delta("relstore.pool.hits");
        out.set(
            "relstore.pool.hit_ratio",
            ratio(hits, hits + delta("relstore.pool.misses")),
        );
        out.set(
            "relstore.pool.evictions",
            delta("relstore.pool.evictions") as f64,
        );
        out.set(
            "relstore.pool.writeback_bytes",
            delta("relstore.pool.writeback_bytes") as f64,
        );
        out.set("wal.checkpoint_ms", base.checkpoint_ms);
        out.set("wal.segments_pruned", delta("wal.segments_pruned") as f64);
        out.set("wal.bytes_reclaimed", delta("wal.bytes_reclaimed") as f64);
        let stats = setup.station.wal.as_ref().expect("durable station").stats();
        out.set("wal.commits_per_fsync", ratio(stats.commits, stats.flushes));
        let blob_stats = setup.station.db.blobs().stats();
        out.set("blobstore.sharing_ratio", blob_stats.sharing_ratio());
        // The log carries rows, not BLOB payloads: its amplification is
        // against row bytes (an attach acknowledges payload + 64).
        let blob_bytes: u64 = setup
            .tapes
            .iter()
            .flat_map(|t| t.ops.iter().map(move |o| (t, o)))
            .filter_map(|(t, o)| match o {
                Op::Attach { payload, .. } => Some(t.payloads[*payload as usize].1.len() as u64),
                _ => None,
            })
            .sum();
        let row_bytes = base.user_bytes.saturating_sub(blob_bytes).max(1);
        out.set(
            "wal.bytes_per_user_byte",
            stats.bytes_written as f64 / row_bytes as f64,
        );
        layers::blobstore(&mut out, &setup.station.db, &setup.tapes);
        layers::logstore(&mut out, &setup.tapes, &scratch.dir("logstore"))?;
        out.set("bench.pool_pages", setup.station.pool_pages as f64);
        let user = setup.seed_bytes + base.user_bytes;
        match crash_and_recover(setup, &mut scratch, 1) {
            Ok((rec, disk, final_pages)) => {
                out.set("bench.recovery_s", rec.recovery_s);
                out.set("wal.recover.analysis_ms", rec.analysis_ms);
                out.set("wal.recover.redo_ms", rec.redo_ms);
                out.set("wal.recover.undo_ms", rec.undo_ms);
                out.set("wal.recover.peak_rss_mb", rec.peak_rss_mb);
                out.set(
                    "bench.disk_bytes_per_user_byte",
                    disk as f64 / user.max(1) as f64,
                );
                out.set("bench.final_pages", final_pages as f64);
            }
            Err(e) => out.fail(e),
        }
    } else {
        drop(setup);
    }

    // ---- traced half: the same tape on a decorated station
    let overhead = trace::span_overhead_ns();
    let traced = set_up(cfg, workload, len, true, &mut scratch, Registry::new())?;
    let before = traced.station.counters(COUNTERS);
    let run = run_clients(&traced.station, &traced.tapes, true);
    let examined = traced.station.counter("relstore.select.rows_examined")
        - before["relstore.select.rows_examined"];
    fail_run(&mut out, &run);
    out.set(
        "bench.trace_overhead_ratio",
        base.ops_per_s() / run.ops_per_s(),
    );
    let counts = &traced.station.counts;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    // The decorator also counted warm-up and seeding verbs; the
    // per-verb ratios use the spans, which cover the timed tape only.
    let spans = &run.spans;
    let verbs = run.timed_verbs.max(1);
    let backend = if workload == AUTHORING_SHARDED {
        "shard"
    } else {
        "relstore"
    };
    let txn_name = if workload == AUTHORING_SHARDED {
        "shard.txn"
    } else {
        "relstore.txn"
    };
    let txns = trace::durations(spans, txn_name);
    let ops: usize = spans
        .iter()
        .flatten()
        .filter(|s| s.layer() == backend && s.name != txn_name)
        .count();
    out.set("core.txns_per_verb", txns.len() as f64 / verbs as f64);
    out.set("core.ops_per_verb", ops as f64 / verbs as f64);
    out.set(
        "relstore.rows_examined_per_row",
        ratio(examined, load(&counts.rows_returned)),
    );
    out.set_p50_p99(
        "core.verb_self_us",
        "core.verb_self_us.p99",
        &mut trace::layer_self_per_verb(spans, "core"),
    );
    if workload == AUTHORING_SHARDED {
        let mut txns = txns;
        out.set_p50_p99("shard.txn_us", "shard.txn_us.p99", &mut txns);
    } else {
        let mut txns = txns;
        out.set_p50_p99("relstore.txn_us", "relstore.txn_us.p99", &mut txns);
        for (name, p99, span) in [
            (
                "relstore.select_us",
                "relstore.select_us.p99",
                "relstore.select",
            ),
            (
                "relstore.insert_us",
                "relstore.insert_us.p99",
                "relstore.insert",
            ),
            (
                "relstore.update_us",
                "relstore.update_us.p99",
                "relstore.update",
            ),
        ] {
            out.set_p50_p99(name, p99, &mut trace::durations(spans, span));
        }
        out.set_p50_p99(
            "relstore.commit_us",
            "relstore.commit_us.p99",
            &mut trace::commit_times(spans, "relstore.txn"),
        );
    }
    if workload == AUTHORING_DURABLE {
        out.set_p50_p99(
            "wal.on_op_us",
            "wal.on_op_us.p99",
            &mut trace::durations(spans, "wal.on_op"),
        );
        out.set_p50_p99(
            "wal.on_commit_us",
            "wal.on_commit_us.p99",
            &mut trace::durations(spans, "wal.on_commit"),
        );
    }
    let tapes = &traced.tapes;
    let by_class = trace::attribute(spans, overhead, |thread, root| {
        let op = &tapes[thread].ops[root.req as usize];
        match op {
            Op::Checkpoint => vec!["checkpoint"],
            _ if op.is_read() => vec!["all", "read", op.verb()],
            _ => vec!["all", "write", op.verb()],
        }
    });
    out.set(
        "bench.unattributed_share",
        by_class
            .get("all")
            .map_or(0.0, trace::Attribution::unattributed_share),
    );
    out.table = Some(layer_table(workload, &by_class, overhead));
    let path = cfg.out.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    drop(traced);

    if workload == AUTHORING_SHARDED {
        layers::shard_overhead(&mut out, cfg, len)?;
        layers::registry_overhead(&mut out, cfg, len)?;
    }
    Ok(out)
}

/// The ROADMAP's E23 table: per verb class, a row per layer; the self
/// times plus the unattributed share equal the verb span.
fn layer_table(
    workload: &str,
    by_class: &BTreeMap<&'static str, trace::Attribution>,
    overhead_ns: f64,
) -> String {
    let mut layers: BTreeSet<&'static str> = BTreeSet::new();
    for a in by_class.values() {
        layers.extend(a.layers.keys());
    }
    let mut t = format!(
        "per-layer time of {workload}, traced run (mean us per verb; span bookkeeping {overhead_ns:.0} ns per span)\n"
    );
    t.push_str(&format!(
        "{:<24} {:>8} {:>10}",
        "verb class", "verbs", "span_us"
    ));
    for l in &layers {
        t.push_str(&format!(" {l:>10}"));
    }
    t.push_str(&format!(" {:>12}\n", "unattributed"));
    let mut classes: Vec<_> = by_class.iter().collect();
    // Aggregates first, then single verbs.
    classes.sort_by_key(|(c, _)| (!matches!(**c, "all" | "read" | "write"), **c));
    for (class, a) in classes {
        let n = a.verbs.max(1) as f64;
        t.push_str(&format!(
            "{class:<24} {:>8} {:>10.2}",
            a.verbs,
            a.total_ns as f64 / n / 1e3
        ));
        for l in &layers {
            t.push_str(&format!(
                " {:>10.2}",
                a.layers.get(l).copied().unwrap_or(0.0) / n / 1e3
            ));
        }
        t.push_str(&format!(" {:>11.1}%\n", a.unattributed_share() * 100.0));
    }
    t
}

/// Build, seed and run one untraced or traced station; used by the
/// replays in [`layers`].
pub fn one_run(
    cfg: &Cfg,
    workload: &str,
    len: usize,
    traced: bool,
    router: Registry,
) -> Result<Run, String> {
    let mut scratch = Scratch::new(&cfg.out).map_err(|e| e.to_string())?;
    let s = set_up(cfg, workload, len, traced, &mut scratch, router)?;
    Ok(run_clients(&s.station, &s.tapes, traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(tag: &str) -> Cfg {
        Cfg {
            seed: 5,
            seconds: 1.0,
            clients: 1,
            smoke: false,
            out: std::env::temp_dir()
                .join(format!("wdoc-benchmark-test-{tag}-{}", std::process::id())),
        }
    }

    /// A 500-verb tape through the traced `DocBackend` and `WalSink`
    /// wrappers leaves the same station dump and the same `Wal::stats`
    /// as without them.
    #[test]
    fn decorators_are_transparent() {
        let cfg = cfg("transparent");
        let mut scratch = Scratch::new(&cfg.out).unwrap();
        let mut seen = Vec::new();
        for traced in [false, true] {
            let s = set_up(
                &cfg,
                AUTHORING_DURABLE,
                500,
                traced,
                &mut scratch,
                Registry::new(),
            )
            .unwrap();
            let run = run_clients(&s.station, &s.tapes, traced);
            assert_eq!(run.failed, 0, "{:?}", run.first_error);
            assert_eq!(run.spans[0].is_empty(), !traced);
            let stats = s.station.wal.as_ref().unwrap().stats();
            seen.push((dump(&s.station.db).unwrap(), stats));
        }
        assert_eq!(
            seen[0].1, seen[1].1,
            "Wal::stats differ under the decorators"
        );
        assert!(
            seen[0].0 == seen[1].0,
            "{}",
            first_difference(&seen[0].0, &seen[1].0)
        );
        for workload in [AUTHORING_MEM, AUTHORING_SHARDED, BROWSE_MVCC] {
            let mut dumps = Vec::new();
            for traced in [false, true] {
                let s = set_up(&cfg, workload, 500, traced, &mut scratch, Registry::new()).unwrap();
                let run = run_clients(&s.station, &s.tapes, traced);
                assert_eq!(run.failed, 0, "{:?}", run.first_error);
                check_rows(&s.station.db, &s.tapes, plan_of(workload).families).unwrap();
                dumps.push(dump(&s.station.db).unwrap());
            }
            assert!(
                dumps[0] == dumps[1],
                "{workload}: decorators changed the station"
            );
        }
        drop(scratch);
        let _ = std::fs::remove_dir_all(&cfg.out);
    }

    #[test]
    fn crash_image_reads_back_and_cut_removes_unsynced_bytes() {
        let cfg = cfg("crash");
        let mut scratch = Scratch::new(&cfg.out).unwrap();
        let s = set_up(
            &cfg,
            AUTHORING_DURABLE,
            600,
            false,
            &mut scratch,
            Registry::new(),
        )
        .unwrap();
        let run = run_clients(&s.station, &s.tapes, false);
        assert_eq!(run.failed, 0, "{:?}", run.first_error);
        let (rec, disk, pages) = crash_and_recover(s, &mut scratch, 2).unwrap();
        assert!(rec.recovery_s > 0.0 && disk > 0 && pages > 0);
        drop(scratch);
        let _ = std::fs::remove_dir_all(&cfg.out);
    }
}
