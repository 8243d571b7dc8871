//! E19 — shard-count sweep: throughput and tail latency of the
//! hash-partitioned router vs a single engine.
//!
//! PR 7 adds the `shard` crate: document tables hash-partitioned
//! across per-shard engines behind a [`Router`] that preserves
//! single-engine semantics exactly (the sharded-vs-unsharded
//! differential tapes prove it op-for-op). This experiment measures
//! what that buys: with every shard running its own strict-2PL lock
//! manager, a mixed Zipf workload that serializes on one engine's
//! locks should spread across `n` of them.
//!
//! **Parity gate (every mode, smoke included).** Before any timing, a
//! deterministic document workload — databases, scripts,
//! implementations with their HTML/program files, column updates and
//! cascading script deletions — is applied twice through the *same*
//! generic driver ([`relstore::testkit::TapeTarget`]): once to a bare
//! engine, once to a one-shard router over the wdoc routing catalog.
//! [`shard::committed_fingerprint`] of the two (every table, every
//! row, *including allocated row ids*) must match byte-for-byte: a
//! one-shard cluster is the unsharded system, not an approximation of
//! it.
//!
//! **The cluster sweep (gated).** The same Zipf trace is replayed
//! against the [`SimCluster`] — one station per shard over LAN links
//! with per-uplink serialization — at every shard count. Transactions
//! arrive faster than a single station can coordinate, so the 1-shard
//! cluster's uplink saturates; spreading the documents over `n`
//! stations spreads the prepare/vote/decide traffic and the backlog
//! drains in parallel *simulated* time. Cells report simulated
//! throughput and p50/p99 submit-to-commit-point latency. Because the
//! simulator is deterministic, these numbers are exact — they measure
//! the protocol, not the host.
//!
//! **Timing gate (full mode only):** simulated throughput at 4 shards
//! must exceed 1 shard by [`MIN_SIM_SCALING`]×. (A wall-clock router
//! sweep is also recorded per shard count for context, ungated: CI
//! containers may have a single core, where engine-parallelism cannot
//! show up on the wall clock.)
//!
//! The collected document lands at `BENCH_e19.json` in the working
//! directory; EXPERIMENTS.md §E19 documents the schema.

use netsim::SimTime;
use obs::Registry;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use relstore::testkit::TapeTarget;
use relstore::{AnyEngine, ColumnType, DocTxn, EngineKind, Predicate, RowId, TableSchema, Value};
use serde::Serialize;
use shard::{committed_fingerprint, wdoc, Router, RoutingSpec, ShardMap, SimCluster, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wdoc_bench::{emit, write_json_file};
use wdoc_core::ids::{DbName, ScriptName, StartUrl, UserId};
use wdoc_core::tables::implementation::ProgramLang;
use wdoc_core::tables::{HtmlFile, Implementation, ProgramFile, Script};
use wdoc_workload::Zipf;

/// Full-mode gate: simulated throughput at 4 shards must beat 1 shard
/// by this factor.
const MIN_SIM_SCALING: f64 = 2.0;
/// Zipf skew of the access trace (the paper's course access pattern).
const ZIPF_S: f64 = 0.8;
/// Point fetches per read transaction.
const GETS_PER_READ: usize = 4;
/// Rows rewritten per write transaction.
const BATCH: usize = 8;

// ---------------------------------------------------------------- parity

fn script(name: &str, i: usize) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new("mmu-courses"),
        keywords: vec!["lecture".into(), format!("week{}", i % 13)],
        author: UserId::new("shih"),
        version: 1 + (i % 3) as i64,
        created: 1_000 + i as u64,
        description: format!("script {name}"),
        expected_completion: (i % 2 == 0).then_some(9_000 + i as u64),
        percent_complete: (i % 101) as i64,
    }
}

fn implementation(url: &str, name: &str, i: usize) -> Implementation {
    Implementation {
        url: StartUrl::new(url),
        script: ScriptName::new(name),
        author: UserId::new("impl-team"),
        created: 2_000 + i as u64,
    }
}

fn html_file(url: &str, j: usize) -> HtmlFile {
    HtmlFile {
        url: StartUrl::new(url),
        path: format!("page{j}.html"),
        content: format!("<html><body>lesson {j}</body></html>")
            .into_bytes()
            .into(),
    }
}

fn program_file(url: &str) -> ProgramFile {
    ProgramFile {
        url: StartUrl::new(url),
        path: "quiz.class".into(),
        lang: ProgramLang::JavaApplet,
        content: b"\xca\xfe\xba\xbe".as_ref().into(),
    }
}

/// Apply the deterministic population + churn to `db`: one database
/// row, `scripts` script families (implementations, HTML and program
/// files), then column updates and cascading deletions.
fn apply_wdoc_workload<T: TapeTarget>(db: &T, scripts: usize) {
    let txn = db.begin();
    txn.insert(
        "wdoc_database",
        vec![
            "mmu-courses".into(),
            "courseware".into(),
            "shih".into(),
            Value::Int(1),
            Value::Timestamp(10),
        ],
    )
    .expect("database row");
    db.commit(txn).expect("database commit");

    for i in 0..scripts {
        let name = format!("s{i:03}");
        let txn = db.begin();
        txn.insert(Script::TABLE, script(&name, i).to_row())
            .expect("script");
        for j in 0..1 + i % 2 {
            let url = format!("http://host/{name}/v{j}/start.html");
            txn.insert(
                Implementation::TABLE,
                implementation(&url, &name, i).to_row(),
            )
            .expect("implementation");
            txn.insert(HtmlFile::TABLE, html_file(&url, j).to_row())
                .expect("html file");
            if i % 3 == 0 {
                txn.insert(ProgramFile::TABLE, program_file(&url).to_row())
                    .expect("program file");
            }
        }
        db.commit(txn).expect("family commit");
    }

    // Churn: bump completion on every 5th script, cascade-delete every
    // 7th (implementations and files ride the FK actions).
    let txn = db.begin();
    for i in (0..scripts).step_by(5) {
        let name = format!("s{i:03}");
        let rows = txn
            .select(Script::TABLE, &Predicate::eq("name", name.as_str()))
            .expect("lookup");
        if let Some((gid, _)) = rows.first() {
            txn.update_cols(
                Script::TABLE,
                *gid,
                &[("percent_complete", Value::Int(100))],
            )
            .expect("update");
        }
    }
    db.commit(txn).expect("update commit");
    for i in (0..scripts).step_by(7) {
        let name = format!("s{i:03}");
        let txn = db.begin();
        let rows = txn
            .select(Script::TABLE, &Predicate::eq("name", name.as_str()))
            .expect("lookup");
        if let Some((gid, _)) = rows.first() {
            txn.delete(Script::TABLE, *gid).expect("cascade delete");
        }
        db.commit(txn).expect("delete commit");
    }
}

/// Run the parity gate: the one-shard router's committed state is
/// byte-for-byte the bare engine's.
fn assert_one_shard_parity(scripts: usize) {
    let engine = AnyEngine::new(EngineKind::TwoPl);
    for (schema, _) in wdoc::catalog() {
        engine.create_table(schema).expect("engine catalog");
    }
    let router = Router::new(EngineKind::TwoPl, ShardMap::uniform(1, 1), Registry::new());
    for (schema, spec) in wdoc::catalog() {
        router.create_table(schema, spec).expect("router catalog");
    }
    apply_wdoc_workload(&engine, scripts);
    apply_wdoc_workload(&router, scripts);

    let of_engine = committed_fingerprint(|table| {
        let t = engine.begin();
        let rows = t.select(table, &Predicate::True).expect("select");
        t.rollback();
        rows
    });
    let of_router = committed_fingerprint(|table| {
        router
            .with_txn(|t| t.select(table, &Predicate::True))
            .expect("select")
    });
    assert_eq!(
        of_engine, of_router,
        "one-shard router diverged from the unsharded engine"
    );
    println!(
        "parity gate: {} scripts, fingerprints identical ({} bytes)",
        scripts,
        of_engine.len()
    );
}

// ----------------------------------------------------------------- sweep

fn doc_schema() -> TableSchema {
    TableSchema::builder("doc")
        .column("id", ColumnType::Int)
        .column("cat", ColumnType::Int)
        .column("bytes", ColumnType::Int)
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Seeded router over `shards` partitions with `rows` documents;
/// returns the per-index global row ids the workers address.
fn seed(shards: u32, rows: usize) -> (Router, Vec<RowId>) {
    let router = Router::new(
        EngineKind::TwoPl,
        ShardMap::uniform(shards, 1),
        Registry::new(),
    );
    router
        .create_table(doc_schema(), RoutingSpec::ByColumn("id".into()))
        .expect("doc table");
    let mut ids = Vec::with_capacity(rows);
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(128) {
        let txn = router.begin();
        for &i in chunk {
            ids.push(
                txn.insert(
                    "doc",
                    vec![Value::Int(i), Value::Int(i % 16), Value::Int(10_000 + i)],
                )
                .expect("seed insert"),
            );
        }
        txn.commit().expect("seed commit");
    }
    (router, ids)
}

#[derive(Serialize)]
struct Cell {
    shards: u32,
    workers: usize,
    write_pct: u64,
    rows: usize,
    elapsed_ms: u64,
    txns: u64,
    txns_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    /// `shard.router.single_shard_commits` — fast-path commits.
    fast_path_commits: u64,
    /// `shard.router.cross_shard_commits` — full 2PC commits.
    two_pc_commits: u64,
    /// `shard.router.retries` — wait-die / conflict re-runs.
    retries: u64,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Time-boxed Zipf workload against a fresh `shards`-way router.
fn run_cell(shards: u32, workers: usize, write_pct: u64, rows: usize, window: Duration) -> Cell {
    let (router, ids) = seed(shards, rows);
    let zipf = Zipf::new(rows, ZIPF_S);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut all_lat: Vec<u64> = Vec::new();
    let mut txns = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let router = &router;
                let ids = &ids;
                let zipf = &zipf;
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w as u64 ^ 0x9E37_79B9_7F4A_7C15);
                    let mut lat = Vec::new();
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let coin = rng.next_u64() % 100;
                        let t0 = Instant::now();
                        // Sample the trace outside the transaction
                        // closure: `with_txn` retries replay the same
                        // row set, as a re-submitted request would.
                        if coin < write_pct {
                            let val = rng.next_u64() as i64;
                            let ixs: Vec<usize> =
                                (0..BATCH).map(|_| zipf.sample(&mut rng)).collect();
                            router
                                .with_txn(|t| {
                                    for &ix in &ixs {
                                        t.update_cols(
                                            "doc",
                                            ids[ix],
                                            &[("bytes", Value::Int(val))],
                                        )?;
                                    }
                                    Ok(())
                                })
                                .expect("write txn");
                        } else {
                            let ixs: Vec<usize> =
                                (0..GETS_PER_READ).map(|_| zipf.sample(&mut rng)).collect();
                            let n = router
                                .with_txn(|t| {
                                    let mut total = 0usize;
                                    for &ix in &ixs {
                                        total += t.get("doc", ids[ix])?.len();
                                    }
                                    Ok(total)
                                })
                                .expect("read txn");
                            std::hint::black_box(n);
                        }
                        lat.push(t0.elapsed().as_micros() as u64);
                        done += 1;
                    }
                    (done, lat)
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (done, lat) = h.join().expect("worker panicked");
            txns += done;
            all_lat.extend(lat);
        }
    });
    let elapsed = started.elapsed();
    all_lat.sort_unstable();
    let m = router.metrics();
    Cell {
        shards,
        workers,
        write_pct,
        rows,
        elapsed_ms: elapsed.as_millis() as u64,
        txns,
        txns_per_sec: txns as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&all_lat, 50),
        p99_us: percentile(&all_lat, 99),
        fast_path_commits: m.counter("shard.router.single_shard_commits"),
        two_pc_commits: m.counter("shard.router.cross_shard_commits"),
        retries: m.counter("shard.router.retries"),
    }
}

// ----------------------------------------------------------- cluster sim

/// Writes per transaction against the primary document's shard.
const SIM_WRITES: usize = 3;
/// Percent of transactions that drag in a second document (usually on
/// another shard → cross-shard two-phase commit).
const SIM_CROSS_PCT: u64 = 25;
/// Simulated inter-arrival gap — faster than one station can
/// coordinate, so the single-shard uplink saturates.
const SIM_GAP: SimTime = SimTime(5);

#[derive(Serialize)]
struct SimCell {
    shards: u32,
    txns: usize,
    sim_elapsed_us: u64,
    sim_txns_per_sec: f64,
    sim_p50_us: u64,
    sim_p99_us: u64,
    commits: u64,
    cross_shard_txns: u64,
}

/// Replay `txns` Zipf-addressed transactions against an `n`-station
/// simulated cluster and measure throughput/latency in *simulated*
/// time.
fn run_sim_cell(n: u32, txns: usize, docs: usize) -> SimCell {
    let mut c = SimCluster::new(n, 1);
    // One deterministic trace per sweep: the same doc sequence hits
    // every shard count (placement differs, the workload does not).
    let mut rng = StdRng::seed_from_u64(0x5EED_E019);
    let zipf = Zipf::new(docs, ZIPF_S);
    let doc_shard =
        |c: &SimCluster, d: usize| c.map().placement_of(format!("doc/{d}").as_bytes()).shard;
    let t0 = c.now();
    let mut gtids = Vec::with_capacity(txns);
    let mut cross = 0u64;
    for i in 0..txns {
        c.run_until(SimTime(t0.0 + SIM_GAP.0 * i as u64));
        let d = zipf.sample(&mut rng);
        let shard = doc_shard(&c, d);
        let mut writes: Vec<Write> = (0..SIM_WRITES)
            .map(|j| Write {
                shard,
                key: (d * SIM_WRITES + j) as u64,
                val: i as i64,
            })
            .collect();
        if rng.next_u64() % 100 < SIM_CROSS_PCT {
            let d2 = (d + 1 + zipf.sample(&mut rng)) % docs;
            let s2 = doc_shard(&c, d2);
            if s2 != shard {
                cross += 1;
            }
            writes.push(Write {
                shard: s2,
                key: (d2 * SIM_WRITES) as u64,
                val: i as i64,
            });
        }
        gtids.push(c.submit(writes));
    }
    // Drain the backlog.
    c.run_until(SimTime(t0.0 + 60_000_000));
    assert_eq!(
        c.decided_count(),
        txns,
        "{n}-shard cluster left transactions undecided"
    );
    let mut lat: Vec<u64> = gtids
        .iter()
        .map(|&g| c.latency_of(g).expect("decided").0)
        .collect();
    lat.sort_unstable();
    let elapsed = c.last_decision_at().expect("decisions").0 - t0.0;
    SimCell {
        shards: n,
        txns,
        sim_elapsed_us: elapsed,
        sim_txns_per_sec: txns as f64 / (elapsed as f64 / 1e6),
        sim_p50_us: percentile(&lat, 50),
        sim_p99_us: percentile(&lat, 99),
        commits: c.metrics().counter("shard.2pc.commits"),
        cross_shard_txns: cross,
    }
}

#[derive(Serialize)]
struct Doc {
    experiment: &'static str,
    mode: &'static str,
    zipf_s: f64,
    min_sim_scaling_gate: Option<f64>,
    parity_scripts: usize,
    sim_cells: Vec<SimCell>,
    router_cells: Vec<Cell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate = !smoke;

    let (shard_counts, workers, write_pct, rows, window, parity_scripts, sim_txns, sim_docs) =
        if smoke {
            (
                vec![1u32, 2],
                2usize,
                30u64,
                256,
                Duration::from_millis(80),
                24,
                200,
                64,
            )
        } else {
            (
                vec![1u32, 2, 4, 8, 16],
                8usize,
                30u64,
                4_096,
                Duration::from_millis(400),
                96,
                2_000,
                256,
            )
        };

    println!(
        "E19: shard-count sweep ({}; {sim_txns} sim txns over {sim_docs} docs, \
         Zipf s={ZIPF_S}; router cells {rows} rows x {workers} workers x {window:?})",
        if smoke { "smoke sizes" } else { "full sizes" },
    );

    // Structural gate first, every mode: one shard IS the unsharded
    // engine, byte for byte.
    assert_one_shard_parity(parity_scripts);

    // The gated axis: the deterministic cluster simulation.
    println!(
        "\n{:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>7}",
        "shards", "sim-txns/s", "elapsed(us)", "p50(us)", "p99(us)", "commits", "cross"
    );
    let mut sim_cells = Vec::new();
    for &shards in &shard_counts {
        let cell = run_sim_cell(shards, sim_txns, sim_docs);
        println!(
            "{:>7} {:>12.0} {:>12} {:>10} {:>10} {:>9} {:>7}",
            cell.shards,
            cell.sim_txns_per_sec,
            cell.sim_elapsed_us,
            cell.sim_p50_us,
            cell.sim_p99_us,
            cell.commits,
            cell.cross_shard_txns
        );
        // Structural, every mode: every submitted transaction commits
        // (the trace has no poison writes, and nothing may wedge).
        assert_eq!(
            cell.commits, cell.txns as u64,
            "lost transactions at {shards} shards"
        );
        emit("e19.sim", &cell);
        sim_cells.push(cell);
    }

    // Context cells: the real router on the host's wall clock.
    println!(
        "\n{:>7} {:>8} {:>12} {:>9} {:>9} {:>11} {:>9} {:>9}",
        "shards", "workers", "txns/s", "p50(us)", "p99(us)", "fast-path", "2pc", "retries"
    );
    let mut router_cells = Vec::new();
    for &shards in &shard_counts {
        eprintln!("[e19] router shards={shards}");
        let cell = run_cell(shards, workers, write_pct, rows, window);
        println!(
            "{:>7} {:>8} {:>12.0} {:>9} {:>9} {:>11} {:>9} {:>9}",
            cell.shards,
            cell.workers,
            cell.txns_per_sec,
            cell.p50_us,
            cell.p99_us,
            cell.fast_path_commits,
            cell.two_pc_commits,
            cell.retries
        );
        emit("e19.router", &cell);
        router_cells.push(cell);
    }

    if gate {
        let find = |n: u32| {
            sim_cells
                .iter()
                .find(|c| c.shards == n)
                .expect("cell measured")
        };
        let (one, four) = (find(1), find(4));
        let scaling = four.sim_txns_per_sec / one.sim_txns_per_sec.max(1e-9);
        println!(
            "\n4-shard sim scaling: {:.0} txns/s vs {:.0} at 1 shard ({scaling:.2}x)",
            four.sim_txns_per_sec, one.sim_txns_per_sec
        );
        assert!(
            scaling >= MIN_SIM_SCALING,
            "4 shards scaled only {scaling:.2}x over 1 shard, need >= {MIN_SIM_SCALING}x"
        );
        // The saturated single station must also show it on the tail.
        assert!(
            four.sim_p99_us < one.sim_p99_us,
            "4-shard p99 {}us did not improve on 1-shard p99 {}us",
            four.sim_p99_us,
            one.sim_p99_us
        );
        // And the router sweep must exercise both commit paths.
        let r4 = router_cells
            .iter()
            .find(|c| c.shards == 4)
            .expect("router cell");
        assert!(r4.two_pc_commits > 0, "no cross-shard commits at 4 shards");
        assert!(r4.fast_path_commits > 0, "no fast-path commits at 4 shards");
    }

    let doc = Doc {
        experiment: "e19",
        mode: if smoke { "smoke" } else { "full" },
        zipf_s: ZIPF_S,
        min_sim_scaling_gate: gate.then_some(MIN_SIM_SCALING),
        parity_scripts,
        sim_cells,
        router_cells,
    };
    let out = PathBuf::from("BENCH_e19.json");
    write_json_file(&out, &doc);
    println!(
        "\nE19 done: {} sim cells + {} router cells -> {}",
        doc.sim_cells.len(),
        doc.router_cells.len(),
        out.display()
    );
}
