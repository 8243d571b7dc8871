//! E21 — the sharded document stack end to end: `WebDocDb` on N
//! shards through the typed facade.
//!
//! PR 9 routes the *whole* document stack through the shard `Router`:
//! `WebDocDb` now runs on any [`wdoc_core::DocBackend`], and
//! [`shard::ShardedBackend`] puts a hash-partitioned router loaded
//! with the wdoc routing catalog behind it. Where E19 measured the bare
//! router on a synthetic table, this experiment drives the **typed
//! DBMS verbs** — `add_script`, `add_implementation`,
//! `update_script`, `add_test_record`, cascading `remove_script` —
//! and measures what the two router optimisations buy them: batched
//! scatter-gather reads (`shard.router.scatter_batched`, plus
//! routing-column pruning counted by `shard.router.routed_selects`)
//! and the Bloom side structure that lets a *cold* globally-unique
//! key skip the remote uniqueness scatter entirely
//! (`shard.router.unique_probe_skips`).
//!
//! **Parity gate (every mode, smoke included).** A deterministic
//! typed workload — databases, script families with their HTML and
//! program files, test records, completion updates, cascading
//! deletions — is applied to a plain `WebDocDb::new()` station and to
//! `ShardedBackend` stations at n = 1, 2 and 4. The full
//! station dump (every table, every row, **including allocated row
//! ids**) must be byte-for-byte identical across all four: a sharded
//! station is the unsharded system, not an approximation of it, and
//! the gid-burn allocator makes even the row ids agree at every
//! shard count.
//!
//! **The cluster sweep (gated).** A Zipf-addressed script-update
//! trace is replayed against the [`SimCluster`] — one station per
//! shard over LAN links with per-uplink serialization — at 1/2/4/8
//! shards. Transactions arrive faster than a single station can
//! coordinate; spreading the script families over `n` stations
//! spreads the prepare/vote/decide traffic and the backlog drains in
//! parallel *simulated* time. **Timing gate (full mode only):**
//! simulated throughput at 4 shards must exceed 1 shard by
//! [`MIN_SIM_SCALING`]× and improve the p99 tail.
//!
//! **Station cells (context, ungated timing).** The real typed
//! station on the host's wall clock: workers mix completion updates,
//! fresh test-record inserts (cold unique names — the Bloom filter's
//! best case) and pinned script reads over a Zipf trace. Cells
//! report throughput, tails and the router counters; full mode
//! asserts the optimisation counters actually moved (skips, batched
//! gathers, pruned selects, both commit paths).
//!
//! The collected document lands at `BENCH_e21.json` in the working
//! directory; EXPERIMENTS.md §E21 documents the schema.

use netsim::SimTime;
use obs::Registry;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use relstore::{EngineKind, Predicate};
use serde::Serialize;
use shard::{ShardedBackend, SimCluster, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wdoc_bench::{emit, write_json_file};
use wdoc_core::ids::{DbName, ScriptName, StartUrl, TestRecordName, UserId};
use wdoc_core::tables::implementation::ProgramLang;
use wdoc_core::tables::test_record::{TestScope, TraversalMsg};
use wdoc_core::tables::{HtmlFile, Implementation, ProgramFile, Script, TestRecord};
use wdoc_core::{DatabaseInfo, WebDocDb};
use wdoc_workload::Zipf;

/// Full-mode gate: simulated typed-transaction throughput at 4 shards
/// must beat 1 shard by this factor (the ISSUE's end-to-end floor;
/// looser than E19's raw-router 2.0× because the typed verbs carry
/// FK probes and alert reads on top of the commit path).
const MIN_SIM_SCALING: f64 = 1.5;
/// Zipf skew of the access trace (the paper's course access pattern).
const ZIPF_S: f64 = 0.8;

// --------------------------------------------------------------- workload

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

fn test_record(name: &str, script: &str, url: &str, i: usize) -> TestRecord {
    TestRecord {
        name: TestRecordName::new(name),
        scope: if i % 2 == 0 {
            TestScope::Local
        } else {
            TestScope::Global
        },
        messages: vec![
            TraversalMsg::Navigate("start.html".into()),
            TraversalMsg::FollowLink(1),
        ],
        script: ScriptName::new(script),
        url: Some(StartUrl::new(url)),
        created: 3_000 + i as u64,
    }
}

/// Apply the deterministic population + churn through the **typed**
/// facade: one database, `scripts` script families (implementations
/// with HTML/program files, a test record on every 4th), then
/// completion updates and cascading deletions.
fn apply_station_workload(db: &WebDocDb, scripts: usize) {
    db.create_database(&DatabaseInfo {
        name: DbName::new("mmu-courses"),
        keywords: vec!["courseware".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 10,
    })
    .expect("database");

    for i in 0..scripts {
        let name = format!("s{i:03}");
        db.add_script(&script(&name, i)).expect("script");
        for j in 0..1 + i % 2 {
            let url = format!("http://host/{name}/v{j}/start.html");
            let programs = if i % 3 == 0 {
                vec![program_file(&url)]
            } else {
                Vec::new()
            };
            db.add_implementation(
                &implementation(&url, &name, i),
                &[html_file(&url, j)],
                &programs,
            )
            .expect("implementation");
        }
        if i % 4 == 0 {
            let url = format!("http://host/{name}/v0/start.html");
            db.add_test_record(&test_record(&format!("tr-{name}"), &name, &url, i))
                .expect("test record");
        }
    }

    // Churn: bump completion on every 5th script, cascade-delete every
    // 7th (implementations, files and test records ride the FK
    // actions).
    for i in (0..scripts).step_by(5) {
        db.update_script(&ScriptName::new(format!("s{i:03}")), |s| {
            s.percent_complete = 100;
        })
        .expect("update");
    }
    for i in (0..scripts).step_by(7) {
        db.remove_script(&ScriptName::new(format!("s{i:03}")))
            .expect("cascade delete");
    }
}

/// Every station table, every committed row, row ids included.
fn station_dump(db: &WebDocDb) -> String {
    let mut out = String::new();
    for schema in WebDocDb::station_schemas() {
        let rows = db
            .with_txn(|t| t.select(&schema.name, &Predicate::True))
            .expect("dump select");
        out.push_str(&format!("== {}\n", schema.name));
        for (id, row) in rows {
            out.push_str(&format!("{id:?} {row:?}\n"));
        }
    }
    out
}

/// A fresh in-memory 2PL station over `shards` hash partitions whose
/// router records into `metrics`.
fn sharded_station(shards: u32, metrics: Registry) -> WebDocDb {
    let backend = ShardedBackend::new(EngineKind::TwoPl, shards, metrics);
    WebDocDb::on_backend(Box::new(backend), true).expect("sharded open")
}

/// The parity gate: the same typed workload through a plain engine
/// station and through 1-, 2- and 4-shard stations must leave
/// byte-identical committed state (row ids included).
fn assert_station_parity(scripts: usize) {
    let local = WebDocDb::new();
    apply_station_workload(&local, scripts);
    let want = station_dump(&local);
    for shards in [1u32, 2, 4] {
        let db = sharded_station(shards, Registry::new());
        apply_station_workload(&db, scripts);
        let got = station_dump(&db);
        assert_eq!(
            got, want,
            "{shards}-shard station diverged from the unsharded engine"
        );
    }
    println!(
        "parity gate: {} scripts, station dumps identical at 1/2/4 shards ({} bytes)",
        scripts,
        want.len()
    );
}

// ----------------------------------------------------------- cluster sim

/// Writes per transaction against the primary script's shard.
const SIM_WRITES: usize = 3;
/// Percent of transactions that also touch a second script family
/// (usually on another shard → cross-shard two-phase commit).
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

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Replay `txns` Zipf-addressed script-update transactions against an
/// `n`-station simulated cluster and measure throughput/latency in
/// *simulated* time. Keys are script families placed by the same
/// consistent hash the router uses.
fn run_sim_cell(n: u32, txns: usize, families: usize) -> SimCell {
    let mut c = SimCluster::new(n, 1);
    let mut rng = StdRng::seed_from_u64(0x5EED_E021);
    let zipf = Zipf::new(families, ZIPF_S);
    let family_shard = |c: &SimCluster, f: usize| {
        c.map()
            .placement_of(format!("script/s{f:03}").as_bytes())
            .shard
    };
    let t0 = c.now();
    let mut gtids = Vec::with_capacity(txns);
    let mut cross = 0u64;
    for i in 0..txns {
        c.run_until(SimTime(t0.0 + SIM_GAP.0 * i as u64));
        let f = zipf.sample(&mut rng);
        let shard = family_shard(&c, f);
        let mut writes: Vec<Write> = (0..SIM_WRITES)
            .map(|j| Write {
                shard,
                key: (f * SIM_WRITES + j) as u64,
                val: i as i64,
            })
            .collect();
        if rng.next_u64() % 100 < SIM_CROSS_PCT {
            let f2 = (f + 1 + zipf.sample(&mut rng)) % families;
            let s2 = family_shard(&c, f2);
            if s2 != shard {
                cross += 1;
            }
            writes.push(Write {
                shard: s2,
                key: (f2 * SIM_WRITES) as u64,
                val: i as i64,
            });
        }
        gtids.push(c.submit(writes));
    }
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

// --------------------------------------------------------- station cells

#[derive(Serialize)]
struct StationCell {
    shards: u32,
    workers: usize,
    update_pct: u64,
    insert_pct: u64,
    families: usize,
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
    /// `shard.router.unique_probe_skips` — cold unique keys whose
    /// remote uniqueness scatter the Bloom filter elided.
    unique_probe_skips: u64,
    /// `shard.router.scatter_batched` — scatter-gather selects that
    /// translated all shards' rows under one directory acquisition.
    scatter_batched: u64,
    /// `shard.router.routed_selects` — selects pinned to one shard by
    /// a routing-column equality conjunct.
    routed_selects: u64,
}

/// Time-boxed Zipf workload of **typed** verbs against a fresh
/// `shards`-way station: completion updates, cold-named test-record
/// inserts, pinned script reads.
fn run_station_cell(
    shards: u32,
    workers: usize,
    update_pct: u64,
    insert_pct: u64,
    families: usize,
    window: Duration,
) -> StationCell {
    let metrics = Registry::new();
    let db = sharded_station(shards, metrics.clone());
    db.create_database(&DatabaseInfo {
        name: DbName::new("mmu-courses"),
        keywords: vec!["courseware".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 10,
    })
    .expect("database");
    for f in 0..families {
        let name = format!("s{f:03}");
        db.add_script(&script(&name, f)).expect("seed script");
        let url = format!("http://host/{name}/v0/start.html");
        db.add_implementation(&implementation(&url, &name, f), &[html_file(&url, 0)], &[])
            .expect("seed implementation");
    }

    let zipf = Zipf::new(families, ZIPF_S);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut all_lat: Vec<u64> = Vec::new();
    let mut txns = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let db = &db;
                let zipf = &zipf;
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w as u64 ^ 0x9E37_79B9_7F4A_7C15);
                    let mut lat = Vec::new();
                    let mut done = 0u64;
                    let mut fresh = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let coin = rng.next_u64() % 100;
                        let f = zipf.sample(&mut rng);
                        let name = ScriptName::new(format!("s{f:03}"));
                        let t0 = Instant::now();
                        if coin < update_pct {
                            let pct = (rng.next_u64() % 101) as i64;
                            db.update_script(&name, |s| s.percent_complete = pct)
                                .expect("update txn");
                        } else if coin < update_pct + insert_pct {
                            // A name no station has ever seen: the
                            // Bloom filter's definitely-absent case.
                            let tr_name = format!("t-{w}-{fresh}");
                            fresh += 1;
                            let url = format!("http://host/s{f:03}/v0/start.html");
                            db.add_test_record(&test_record(
                                &tr_name,
                                &format!("s{f:03}"),
                                &url,
                                f,
                            ))
                            .expect("insert txn");
                        } else {
                            let s = db.script(&name).expect("read txn");
                            let imps = db.implementations_of(&name).expect("read txn");
                            std::hint::black_box((s.version, imps.len()));
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
    StationCell {
        shards,
        workers,
        update_pct,
        insert_pct,
        families,
        elapsed_ms: elapsed.as_millis() as u64,
        txns,
        txns_per_sec: txns as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&all_lat, 50),
        p99_us: percentile(&all_lat, 99),
        fast_path_commits: metrics.counter("shard.router.single_shard_commits"),
        two_pc_commits: metrics.counter("shard.router.cross_shard_commits"),
        retries: metrics.counter("shard.router.retries"),
        unique_probe_skips: metrics.counter("shard.router.unique_probe_skips"),
        scatter_batched: metrics.counter("shard.router.scatter_batched"),
        routed_selects: metrics.counter("shard.router.routed_selects"),
    }
}

#[derive(Serialize)]
struct Doc {
    experiment: &'static str,
    mode: &'static str,
    zipf_s: f64,
    min_sim_scaling_gate: Option<f64>,
    parity_scripts: usize,
    parity_shard_counts: [u32; 3],
    sim_cells: Vec<SimCell>,
    station_cells: Vec<StationCell>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate = !smoke;

    let (shard_counts, workers, update_pct, insert_pct, families, window, parity_scripts, sim_txns) =
        if smoke {
            (
                vec![1u32, 2],
                2usize,
                25u64,
                15u64,
                64,
                Duration::from_millis(80),
                24,
                200,
            )
        } else {
            (
                vec![1u32, 2, 4, 8],
                8usize,
                25u64,
                15u64,
                512,
                Duration::from_millis(400),
                96,
                2_000,
            )
        };

    println!(
        "E21: sharded document stack ({}; {sim_txns} sim txns over {families} script \
         families, Zipf s={ZIPF_S}; station cells {workers} workers x {window:?})",
        if smoke { "smoke sizes" } else { "full sizes" },
    );

    // Structural gate first, every mode: a sharded station IS the
    // unsharded station, byte for byte, at every shard count.
    assert_station_parity(parity_scripts);

    // The gated axis: the deterministic cluster simulation.
    println!(
        "\n{:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>7}",
        "shards", "sim-txns/s", "elapsed(us)", "p50(us)", "p99(us)", "commits", "cross"
    );
    let mut sim_cells = Vec::new();
    for &shards in &shard_counts {
        let cell = run_sim_cell(shards, sim_txns, families);
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
        assert_eq!(
            cell.commits, cell.txns as u64,
            "lost transactions at {shards} shards"
        );
        emit("e21.sim", &cell);
        sim_cells.push(cell);
    }

    // Context cells: the real typed station on the host's wall clock.
    println!(
        "\n{:>7} {:>8} {:>10} {:>9} {:>9} {:>10} {:>7} {:>7} {:>7} {:>8} {:>7}",
        "shards",
        "workers",
        "txns/s",
        "p50(us)",
        "p99(us)",
        "fast-path",
        "2pc",
        "retry",
        "skips",
        "batched",
        "routed"
    );
    let mut station_cells = Vec::new();
    for &shards in &shard_counts {
        eprintln!("[e21] station shards={shards}");
        let cell = run_station_cell(shards, workers, update_pct, insert_pct, families, window);
        println!(
            "{:>7} {:>8} {:>10.0} {:>9} {:>9} {:>10} {:>7} {:>7} {:>7} {:>8} {:>7}",
            cell.shards,
            cell.workers,
            cell.txns_per_sec,
            cell.p50_us,
            cell.p99_us,
            cell.fast_path_commits,
            cell.two_pc_commits,
            cell.retries,
            cell.unique_probe_skips,
            cell.scatter_batched,
            cell.routed_selects
        );
        emit("e21.station", &cell);
        station_cells.push(cell);
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
        assert!(
            four.sim_p99_us < one.sim_p99_us,
            "4-shard p99 {}us did not improve on 1-shard p99 {}us",
            four.sim_p99_us,
            one.sim_p99_us
        );
        // The optimisations must actually fire on the typed workload.
        let s4 = station_cells
            .iter()
            .find(|c| c.shards == 4)
            .expect("station cell");
        assert!(s4.fast_path_commits > 0, "no fast-path commits at 4 shards");
        assert!(
            s4.unique_probe_skips > 0,
            "cold test-record names never skipped the uniqueness scatter"
        );
        assert!(s4.scatter_batched > 0, "no batched scatter-gather reads");
        assert!(
            s4.routed_selects > 0,
            "no selects were pinned by the routing column"
        );
    }

    let doc = Doc {
        experiment: "e21",
        mode: if smoke { "smoke" } else { "full" },
        zipf_s: ZIPF_S,
        min_sim_scaling_gate: gate.then_some(MIN_SIM_SCALING),
        parity_scripts,
        parity_shard_counts: [1, 2, 4],
        sim_cells,
        station_cells,
    };
    let out = PathBuf::from("BENCH_e21.json");
    write_json_file(&out, &doc);
    println!(
        "\nE21 done: {} sim cells + {} station cells -> {}",
        doc.sim_cells.len(),
        doc.station_cells.len(),
        out.display()
    );
}
