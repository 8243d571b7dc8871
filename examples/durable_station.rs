//! A workstation that survives a power cut.
//!
//! The 1999 system leaned on its commercial RDBMS for durability; this
//! walkthrough shows the reproduction's own write-ahead log doing that
//! job: a professor authors course material durably, the station dies
//! mid-transaction, and reopening the same directory recovers every
//! committed document while discarding the half-finished one.
//!
//! Run with: `cargo run --example durable_station`
//!
//! With `--shards N` the station spans N hash partitions that all
//! write the one station log (`wal.d/` beside `blobs.d/`; a cross-shard
//! commit is one joint commit frame): reopening splits the log into
//! one stream per shard, recovers every shard, and rebuilds the routing
//! directories from the recovered rows. (The torn-transaction
//! demonstration needs raw engine access and runs in the unsharded
//! mode only — a sharded crash is exercised at every byte of the log
//! by the shard crate's `one_log_recovery` tests.)
//!
//! With `--sim-threads N` (N > 1) the recovered station's course
//! pre-broadcast to the classroom is simulated on the island-parallel
//! engine with N threads and asserted identical to the sequential
//! engine's report (the E22 determinism contract).

use mmu_wdoc::core::dbms::DatabaseInfo;
use mmu_wdoc::core::ids::{DbName, ScriptName, UserId};
use mmu_wdoc::core::tables::Script;
use mmu_wdoc::core::WebDocDb;
use mmu_wdoc::logstore::LogConfig;
use mmu_wdoc::shard::ShardedBackend;
use mmu_wdoc::wal::WalOptions;

fn lecture(name: &str, week: &str) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new("mm-course"),
        keywords: vec!["lecture".into()],
        author: UserId::new("prof-shih"),
        version: 1,
        created: 42,
        description: week.into(),
        expected_completion: None,
        percent_complete: 100,
    }
}

/// `--shards N` from the command line (default 1 = unsharded).
fn arg_shards() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--shards takes a positive integer"))
        .unwrap_or(1)
}

/// `--sim-threads N` from the command line (default 1 = sequential).
fn arg_sim_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--sim-threads")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--sim-threads takes a positive integer"))
        .unwrap_or(1)
}

/// Open the station durably at `dir`, unsharded or N-way sharded, and
/// report how much recovery work the open performed.
fn open(dir: &std::path::Path, shards: u32) -> WebDocDb {
    let opts = WalOptions::default();
    if shards > 1 {
        let metrics = opts.metrics.clone();
        let (backend, reports) = ShardedBackend::recover(shards, dir, opts).unwrap();
        let db = WebDocDb::on_durable_backend(
            Box::new(backend),
            true,
            dir,
            LogConfig::default(),
            metrics,
        )
        .unwrap();
        let scanned = reports[0].records_scanned;
        let losers: usize = reports.iter().map(|r| r.losers.len()).sum();
        println!(
            "opened {shards}-shard durable station: one log split into {} shard streams, {scanned} records scanned, {losers} loser(s) rolled back",
            reports.len(),
        );
        db
    } else {
        let (db, report) = WebDocDb::open_durable_logged(dir, opts, LogConfig::default()).unwrap();
        println!(
            "opened durable station: {} records scanned, checkpoint at {:?}, {} winner(s), {} loser(s) rolled back",
            report.records_scanned,
            report.checkpoint_lsn,
            report.winners.len(),
            report.losers.len(),
        );
        db
    }
}

fn main() {
    let shards = arg_shards();
    let dir = std::env::temp_dir().join(format!("wdoc-example-station-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Session 1: author durably, then lose power. -----------------
    {
        let db = open(&dir, shards);
        println!("fresh station at {}", dir.display());

        db.create_database(&DatabaseInfo {
            name: DbName::new("mm-course"),
            keywords: vec!["multimedia".into(), "icpp".into()],
            author: UserId::new("prof-shih"),
            version: 1,
            created: 42,
        })
        .unwrap();
        db.add_script(&lecture("intro", "week 1: hypermedia"))
            .unwrap();
        db.add_script(&lecture("sync", "week 2: lip synchronization"))
            .unwrap();
        println!("committed 2 lecture scripts");

        // A checkpoint bounds how much log a restart must replay (and
        // deletes the log segments it covers).
        let lsn = db.checkpoint().unwrap();
        println!("checkpoint written at LSN {lsn}");

        db.add_script(&lecture("qos", "week 3: networked QoS"))
            .unwrap();
        println!("committed 1 more script after the checkpoint");

        if shards == 1 {
            // Week 4 is being registered when the power goes out: its
            // log records reach the disk, its commit record never does.
            let txn = db.relational().begin();
            txn.insert(
                "script",
                lecture("half-written", "week 4: unfinished").to_row(),
            )
            .unwrap();
            db.wal().unwrap().flush().unwrap();
            std::mem::forget(txn); // the crash — no commit, no rollback
            println!("power cut mid-transaction on a 4th script\n");
        } else {
            println!("power cut between transactions\n");
        }
    }

    // ---- Session 2: recover. -----------------------------------------
    let db = open(&dir, shards);

    let scripts = db.scripts_in(&DbName::new("mm-course")).unwrap();
    let mut names: Vec<String> = scripts.iter().map(|s| s.name.to_string()).collect();
    names.sort();
    println!("surviving scripts: {names:?}");
    assert_eq!(names, ["intro", "qos", "sync"], "committed work survived");
    assert!(
        db.script(&ScriptName::new("half-written")).is_err(),
        "the in-flight transaction did not"
    );

    // The recovered station is fully live: keep writing durably.
    db.add_script(&lecture("proj", "week 5: course project"))
        .unwrap();
    println!("post-recovery commit succeeded — station is back in service");

    // ---- Optional: distribute the recovered course in parallel. ------
    // The recovered material gets pre-broadcast to a classroom of 32
    // stations; with --sim-threads N the simulation runs island-
    // parallel and must reproduce the sequential report exactly.
    let threads = arg_sim_threads();
    if threads > 1 {
        use mmu_wdoc::dist::{broadcast, broadcast_par, BroadcastTree};
        use mmu_wdoc::netsim::{LinkSpec, Network, ParNet, SimTime};
        let classroom = 32;
        let course_bytes = 4 * 900_000; // four lecture scripts' media
        let link = LinkSpec::new(2_000_000, SimTime::from_millis(4));

        let (mut seq_net, seq_ids) = Network::uniform(classroom, link);
        let seq_r = broadcast(&mut seq_net, &BroadcastTree::new(seq_ids, 4), course_bytes);

        let (mut par_net, par_ids) = ParNet::uniform(classroom, link, threads);
        let par_r = broadcast_par(
            &mut par_net,
            &BroadcastTree::new(par_ids, 4),
            course_bytes,
            threads,
        );
        assert_eq!(
            seq_r, par_r,
            "parallel engine must match the sequential one"
        );
        println!(
            "distributed the recovered course to {} stations on {threads} sim threads \
             (completion {}, identical to sequential)",
            classroom - 1,
            par_r.completion,
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
