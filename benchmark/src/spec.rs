//! The benchmark's vocabulary: every workload and metric name, with
//! unit, direction, layer and regression bound. `BENCHMARK.json` at the
//! repository root states the same lists for the driver; a unit test
//! keeps the two in step. `benchmark list` prints this table.

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const AUTHORING_MEM: &str = "authoring_mem";
pub const AUTHORING_SHARDED: &str = "authoring_sharded";
pub const AUTHORING_DURABLE: &str = "authoring_durable";
pub const BROWSE_MVCC: &str = "browse_mvcc";
pub const LECTURE_BROADCAST: &str = "lecture_broadcast";

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: AUTHORING_MEM,
        why: "typed verbs on one in-memory 2PL engine: core and relstore do all the work, shard/wal/logstore none; the baseline every other station workload is read against",
    },
    WorkloadSpec {
        name: AUTHORING_SHARDED,
        why: "the same tape byte for byte through the 4-shard router: only the shard layer differs from authoring_mem, so router cost is the ratio of two numbers",
    },
    WorkloadSpec {
        name: AUTHORING_DURABLE,
        why: "write-heavy verbs on the logged durable station with real fsync and a buffer pool a third of the data: the only workload where wal, logstore, blobstore and eviction carry weight",
    },
    WorkloadSpec {
        name: BROWSE_MVCC,
        why: "read-heavy verbs on the MVCC engine: the same core/relstore layers used the other way, so a gain for writers or one engine that costs readers or the other shows",
    },
    WorkloadSpec {
        name: LECTURE_BROADCAST,
        why: "no station: course broadcast, demand trace and ParNet broadcasts over 10240 simulated stations; dist and netsim do all the work, the no-change control of the storage workloads",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate whose work the number describes (`station`/`bench`
    /// for whole-path and harness numbers).
    pub layer: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics only.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        layer: "station",
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        layer,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract), so each is defined on the simulator
/// workload too — see the README glossary for the exact reading there.
/// Timing bounds are the contract's widest: on this shared 2-core host
/// the same binary on the same seed moves 6-11 % from one invocation
/// to the next, so a tighter bound would sit inside the noise.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, "one set-up per repetition, their third fastest of 8 (lecture: second of 5): tape generation + build + seed"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "typed verbs per second: median over 5 tape slices of the clients' summed rates (station); sequential-engine deliveries per second over phases A+B of a round (lecture); third best of the 8 repetitions"),
    e2e("read_p50_us", "us", Lower, 0.25, "median read-verb latency, median over 5 tape slices (station); wall time per demand access of a round (lecture); third best of the 8 repetitions"),
    e2e("write_p50_us", "us", Lower, 0.25, "median write-verb latency, median over 5 tape slices (station); median wall time of one object's ParNet broadcast in a round (lecture); third best of the 8 repetitions"),
    e2e("recovery_s", "s", Lower, 0.25, "reopen of the crash image until the first script read returns, second fastest of 3 reopens (authoring_durable); elsewhere nothing survives a kill, so recovery is a rebuild: lower quartile of the rebuilds, 5 after every repetition"),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.10, "bytes held at the end of the run per acknowledged user byte: station directory (durable), heap + BLOB bytes (in-memory); replica bytes per object byte, averaged over the course's objects (lecture)"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "VmHWM of the benchmark process, restarted at each repetition (round, reopen); the lowest repetition's mark; one workload per process"),
];

/// Single-layer numbers, measured from outside each crate's public
/// functions. No bounds. A metric whose layer does no work on a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // core
    layer("core.verb_self_us", "us", Lower, "core", "p50 per verb of the time in core code: verb span minus DocBackend child spans"),
    layer("core.verb_self_us.p99", "us", Lower, "core", "p99 of the same"),
    layer("core.txns_per_verb", "ratio", Lower, "core", "DocBackend transactions opened per verb (decorator count)"),
    layer("core.ops_per_verb", "ratio", Lower, "core", "DocTxn operations per verb (decorator count)"),
    layer("core.alerts_for_us", "us", Lower, "core", "p50 of direct alerts_for(Script, name) calls after the run"),
    layer("core.alerts_for_us.p99", "us", Lower, "core", "p99 of the same"),
    // relstore
    layer("relstore.txn_us", "us", Lower, "relstore", "p50 span of one with_txn_dyn on the bare engine"),
    layer("relstore.txn_us.p99", "us", Lower, "relstore", "p99 of the same"),
    layer("relstore.select_us", "us", Lower, "relstore", "p50 DocTxn::select on the bare engine"),
    layer("relstore.select_us.p99", "us", Lower, "relstore", "p99 of the same"),
    layer("relstore.insert_us", "us", Lower, "relstore", "p50 DocTxn::insert on the bare engine"),
    layer("relstore.insert_us.p99", "us", Lower, "relstore", "p99 of the same"),
    layer("relstore.update_us", "us", Lower, "relstore", "p50 DocTxn::update on the bare engine"),
    layer("relstore.update_us.p99", "us", Lower, "relstore", "p99 of the same"),
    layer("relstore.commit_us", "us", Lower, "relstore", "p50 of txn span minus closure span: begin + commit + retry bookkeeping"),
    layer("relstore.commit_us.p99", "us", Lower, "relstore", "p99 of the same"),
    layer("relstore.rows_examined_per_row", "ratio", Lower, "relstore", "relstore.select.rows_examined / rows returned to the decorator"),
    layer("relstore.lock_waits_per_txn", "ratio", Lower, "relstore", "relstore.lock.waits / engine commits"),
    layer("relstore.waitdie_aborts_per_txn", "ratio", Lower, "relstore", "relstore.lock.wait_die_aborts / engine commits"),
    layer("relstore.mvcc.conflicts_per_txn", "ratio", Lower, "relstore", "relstore.mvcc.write_conflicts / engine commits"),
    layer("relstore.mvcc.versions_reclaimed", "count", Higher, "relstore", "relstore.mvcc.gc_reclaimed over the run"),
    layer("relstore.pool.hit_ratio", "ratio", Higher, "relstore", "pool hits / (hits + misses) over the run"),
    layer("relstore.pool.evictions", "count", Lower, "relstore", "frames evicted over the run"),
    layer("relstore.pool.writeback_bytes", "bytes", Lower, "relstore", "bytes the pool wrote back over the run"),
    // shard
    layer("shard.txn_us", "us", Lower, "shard", "p50 span of one with_txn_dyn through the router"),
    layer("shard.txn_us.p99", "us", Lower, "shard", "p99 of the same"),
    layer("shard.overhead_ratio", "ratio", Lower, "shard", "shard.txn_us p50 / relstore.txn_us p50 of the same tape on a bare engine"),
    layer("shard.cross_shard_share", "ratio", Lower, "shard", "cross_shard_commits / (single + cross shard commits)"),
    layer("shard.retries_per_txn", "ratio", Lower, "shard", "shard.router.retries / shard.router.txns"),
    layer("shard.unique_probe_skip_share", "ratio", Higher, "shard", "unique_probe_skips / (skips + scatter_checks)"),
    layer("shard.scatter_batched_per_verb", "ratio", Lower, "shard", "shard.router.scatter_batched / verbs"),
    layer("shard.routed_select_share", "ratio", Higher, "shard", "routed_selects / (routed_selects + scatter_batched)"),
    // wal
    layer("wal.on_op_us", "us", Lower, "wal", "p50 WalSink::on_op (decorator)"),
    layer("wal.on_op_us.p99", "us", Lower, "wal", "p99 of the same"),
    layer("wal.on_commit_us", "us", Lower, "wal", "p50 WalSink::on_commit, group-commit wait included"),
    layer("wal.on_commit_us.p99", "us", Lower, "wal", "p99 of the same"),
    layer("wal.commits_per_fsync", "ratio", Higher, "wal", "Wal::stats commits / flushes"),
    layer("wal.bytes_per_user_byte", "ratio", Lower, "wal", "Wal::stats bytes_written / acknowledged row bytes"),
    layer("wal.checkpoint_ms", "ms", Lower, "wal", "wall time of the inline checkpoint()"),
    layer("wal.segments_pruned", "count", Higher, "wal", "segments the checkpoint deleted"),
    layer("wal.bytes_reclaimed", "bytes", Higher, "wal", "bytes the checkpoint reclaimed"),
    layer("wal.recover.analysis_ms", "ms", Lower, "wal", "analysis phase of the crash-image reopen"),
    layer("wal.recover.redo_ms", "ms", Lower, "wal", "redo phase of the crash-image reopen"),
    layer("wal.recover.undo_ms", "ms", Lower, "wal", "undo phase of the crash-image reopen"),
    layer("wal.recover.peak_rss_mb", "MB", Lower, "wal", "VmHWM of the crash-image reopen, the mark restarted before it (two modes, about 34 and 45 MB, by where the checkpoint fell)"),
    // logstore
    layer("logstore.put_us", "us", Lower, "logstore", "p50 put, replaying the tape's BLOB stream into a scratch LogStore"),
    layer("logstore.put_us.p99", "us", Lower, "logstore", "p99 of the same"),
    layer("logstore.get_us", "us", Lower, "logstore", "p50 get of every live key of the replay"),
    layer("logstore.get_us.p99", "us", Lower, "logstore", "p99 of the same"),
    layer("logstore.merge_ms", "ms", Lower, "logstore", "wall time of merge() after the replay"),
    layer("logstore.bytes_rewritten", "bytes", Lower, "logstore", "live bytes that merge copied forward"),
    layer("logstore.disk_bytes_per_live_byte", "ratio", Lower, "logstore", "stats().disk_bytes / live_bytes after the replay, before the merge"),
    // blobstore
    layer("blobstore.store_us", "us", Lower, "blobstore", "p50 store of fresh payloads on db.blobs()"),
    layer("blobstore.store_us.p99", "us", Lower, "blobstore", "p99 of the same"),
    layer("blobstore.get_us", "us", Lower, "blobstore", "p50 get of the tape's attached payloads on db.blobs()"),
    layer("blobstore.get_us.p99", "us", Lower, "blobstore", "p99 of the same"),
    layer("blobstore.sharing_ratio", "ratio", Higher, "blobstore", "BlobStore::stats sharing ratio at the end of the tape"),
    // library
    layer("library.publish_us", "us", Lower, "library", "p50 Catalog::publish of the seeded scripts"),
    layer("library.publish_us.p99", "us", Lower, "library", "p99 of the same"),
    layer("library.search_us", "us", Lower, "library", "p50 Catalog::search_keywords over the seeded keywords"),
    layer("library.search_us.p99", "us", Lower, "library", "p99 of the same"),
    // dist
    layer("dist.broadcast_wall_ms", "ms", Lower, "dist", "median wall time of one broadcast_course (phase A)"),
    layer("dist.demand_wall_ms", "ms", Lower, "dist", "median wall time of one DemandSim::run (phase B)"),
    layer("dist.completion_sim_us", "us", Lower, "dist", "simulated completion time of the course broadcast (exact)"),
    layer("dist.bytes_total", "bytes", Lower, "dist", "bytes the course broadcast moved (exact)"),
    layer("dist.demand.remote_fetch_share", "ratio", Lower, "dist", "remote fetches / accesses of the demand trace (exact)"),
    // netsim
    layer("netsim.events", "count", Lower, "netsim", "messages delivered in one round, A + B + C (exact)"),
    layer("netsim.topology_build_ms", "ms", Lower, "netsim", "median wall time to build one 10240-station network"),
    layer("netsim.par.speedup", "ratio", Higher, "netsim", "ParNet deliveries per second / sequential single-object deliveries per second"),
    // obs
    layer("obs.registry_overhead_ratio", "ratio", Lower, "obs", "wall time of a tenth of the tape with the router registry enabled / with Registry::disabled()"),
    layer("obs.snapshot_ms", "ms", Lower, "obs", "wall time of Registry::snapshot() after the run"),
    // bench: harness numbers and the single-workload headline numbers
    // the issue wanted end to end but the driver's contract (every
    // end-to-end metric on every workload, never 0) cannot carry.
    layer("bench.trace_overhead_ratio", "ratio", Lower, "bench", "untraced ops_per_s / traced ops_per_s on the same half-length tape"),
    layer("bench.unattributed_share", "ratio", Lower, "bench", "share of traced verb time that is the tracer's own span bookkeeping, not a layer's"),
    layer("bench.read_p99_us", "us", Lower, "bench", "p99 read latency, median over 5 tape slices (station); slowest round's per-access demand time (lecture); demoted from the end-to-end list, see README"),
    layer("bench.write_p99_us", "us", Lower, "bench", "p99 write latency, median over 5 tape slices (station); p99 per-object ParNet broadcast time (lecture); demoted likewise"),
    layer("bench.read_p999_us", "us", Lower, "bench", "p99.9 read latency over the whole untraced tape"),
    layer("bench.write_p999_us", "us", Lower, "bench", "p99.9 write latency over the whole untraced tape"),
    layer("bench.tape_gen_s", "s", Lower, "bench", "tape generation share of set-up"),
    layer("bench.verbs_per_s", "1/s", Higher, "bench", "ops_per_s of the untraced half-length tape of the traced invocation"),
    layer("bench.failed_ops_share", "ratio", Lower, "bench", "failed / attempted; a refused or errored verb counts as failed"),
    layer("bench.recovery_s", "s", Lower, "bench", "authoring_durable: reopen of the crash image until the first script read returns"),
    layer("bench.disk_bytes_per_user_byte", "ratio", Lower, "bench", "authoring_durable: bytes under the station directory / acknowledged row + BLOB bytes"),
    layer("bench.sim_events_per_s", "1/s", Higher, "bench", "lecture_broadcast: deliveries of A + B / wall"),
    layer("bench.par_events_per_s", "1/s", Higher, "bench", "lecture_broadcast: deliveries of C / wall"),
    layer("bench.pool_pages", "count", Lower, "bench", "authoring_durable: resident-page budget P of the buffer pool"),
    layer("bench.final_pages", "count", Lower, "bench", "authoring_durable: pages in the page store at the end of the tape"),
    layer("bench.clients", "count", Lower, "bench", "closed-loop client threads of the run"),
];

/// `benchmark list`: every metric name with unit and layer.
pub fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name unit better bound layer: what):");
    for m in END_TO_END {
        println!(
            "  {:<34} {:<6} {:<6} {:<5} {:<9} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            m.layer,
            m.what
        );
    }
    println!("per-layer metrics (name unit better layer: what):");
    for m in PER_LAYER {
        println!(
            "  {:<34} {:<6} {:<6} {:<9} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.what
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct JsonWorkload {
        name: String,
        why: String,
    }
    #[derive(Deserialize)]
    struct JsonE2e {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }
    #[derive(Deserialize)]
    struct JsonLayer {
        name: String,
        unit: String,
        better: String,
    }
    #[derive(Deserialize)]
    struct BenchmarkJson {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<JsonWorkload>,
        end_to_end: Vec<JsonE2e>,
        per_layer: Vec<JsonLayer>,
    }

    /// `BENCHMARK.json` is the driver's copy of this table.
    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc.paths, vec!["benchmark".to_owned()]);
        assert!(doc.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&doc.run_seconds));
        assert_eq!(doc.workloads.len(), WORKLOADS.len());
        for (j, w) in doc.workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.name, w.name);
            assert_eq!(j.why, w.why);
            assert!(j.why.len() <= 200, "{} why too long", j.name);
        }
        assert_eq!(doc.end_to_end.len(), END_TO_END.len());
        for (j, m) in doc.end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (j.name.as_str(), j.unit.as_str(), j.better.as_str()),
                (m.name, m.unit, m.better.as_str())
            );
            assert_eq!(Some(j.bound), m.bound);
            assert!(j.bound <= 0.25);
        }
        assert_eq!(doc.per_layer.len(), PER_LAYER.len());
        assert!(doc.per_layer.len() <= 128);
        for (j, m) in doc.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (j.name.as_str(), j.unit.as_str(), j.better.as_str()),
                (m.name, m.unit, m.better.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "{n} used twice");
            assert!(n.len() <= 64);
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // The driver's contract names this one.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
