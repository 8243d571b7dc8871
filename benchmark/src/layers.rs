//! Layers no verb reaches alone, measured by replaying recorded inputs
//! straight into their public functions — and the two ratios that need
//! a second station (router overhead, registry overhead).

use crate::spec::{AUTHORING_MEM, AUTHORING_SHARDED};
use crate::stats::{median_f64, percentile};
use crate::tape::{self, Fam, Op, Tape};
use crate::trace;
use crate::{station, Cfg, Outcome};
use obs::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;
use wdoc_core::ids::{CourseId, ScriptName};
use wdoc_core::{ObjectKind, WebDocDb};
use wdoc_library::search::{Catalog, CatalogEntry};
use wdoc_workload::Zipf;

fn timed<T>(ns: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    ns.push(t.elapsed().as_nanos() as u64);
    v
}

/// `core.alerts_for_us`: the integrity walk of `update_script`, called
/// directly over Zipf-chosen scripts of the station the tape left.
pub fn alerts_for(out: &mut Outcome, db: &WebDocDb, families: u32, seed: u64) {
    const CALLS: usize = 400;
    let zipf = Zipf::new(families as usize, tape::ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1E5);
    let mut ns = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let name = tape::script_name(0, Fam::Seeded(zipf.sample(&mut rng) as u32));
        let alerts = timed(&mut ns, || db.alerts_for(ObjectKind::Script, &name));
        if alerts.is_err() {
            out.fail(format!("alerts_for({name}) failed"));
            return;
        }
    }
    out.set_p50_p99("core.alerts_for_us", "core.alerts_for_us.p99", &mut ns);
}

/// `library.*`: no verb calls the library today; publishing the seeded
/// scripts and searching their keywords is recorded so a later wiring
/// shows.
pub fn library(out: &mut Outcome, families: u32) {
    let mut catalog = Catalog::new();
    let mut publish = Vec::with_capacity(families as usize);
    for f in 0..families {
        let name = tape::script_name(0, Fam::Seeded(f));
        let entry = CatalogEntry {
            course: CourseId::new(format!("course{}", f % 32)),
            title: format!("Lecture {f}"),
            instructor: tape::author(f),
            keywords: tape::keywords(f),
            script: ScriptName::new(name),
            pages: vec!["start.html".into()],
        };
        timed(&mut publish, || catalog.publish(entry));
    }
    let mut search = Vec::new();
    for q in 0..97 {
        let query = format!("topic{q}");
        let hits = timed(&mut search, || catalog.search_keywords(&query).len());
        if hits == 0 {
            out.fail(format!("library search for {query} found nothing"));
        }
    }
    for w in 0..13 {
        let query = format!("lecture week{w}");
        timed(&mut search, || catalog.search_keywords(&query).len());
    }
    out.set_p50_p99("library.publish_us", "library.publish_us.p99", &mut publish);
    out.set_p50_p99("library.search_us", "library.search_us.p99", &mut search);
}

/// `blobstore.*`, direct on the live station's `db.blobs()`: `get` of
/// the payloads the tape left attached, `store` of fresh payloads of
/// the tape's sizes (released again, so the station is unchanged).
pub fn blobstore(out: &mut Outcome, db: &WebDocDb, tapes: &[Tape]) {
    let blobs = db.blobs();
    let mut get = Vec::new();
    for t in tapes {
        for (_, payload, _) in &t.model.attached {
            let data = &t.payloads[*payload as usize].1;
            let id = blobstore::BlobId::of(data);
            let got = timed(&mut get, || blobs.get(id));
            if got.as_ref() != Some(data) {
                out.fail(format!("attached BLOB {id} does not read back"));
                return;
            }
        }
    }
    let mut store = Vec::new();
    for (i, (kind, data)) in tapes.iter().flat_map(|t| &t.payloads).take(128).enumerate() {
        let fresh = wdoc_workload::payload((0xB10B << 32) | i as u64, data.len() as u64);
        let meta = timed(&mut store, || blobs.store(*kind, fresh));
        blobs.release(meta.id);
    }
    out.set_p50_p99("blobstore.get_us", "blobstore.get_us.p99", &mut get);
    out.set_p50_p99("blobstore.store_us", "blobstore.store_us.p99", &mut store);
}

/// `logstore.*`: the tape's BLOB stream — put on attach, remove when
/// the last attachment of a payload goes — replayed into a scratch
/// `LogStore` with the station's configuration, then every live key
/// read, then one `merge()`.
pub fn logstore(out: &mut Outcome, tapes: &[Tape], dir: &Path) -> Result<(), String> {
    let err = |e: logstore::LogError| format!("scratch logstore: {e}");
    let store = logstore::LogStore::open(dir, logstore::LogConfig::default()).map_err(err)?;
    let mut put = Vec::new();
    // Clients interleave one op at a time, as the closed loop roughly does.
    let longest = tapes.iter().map(|t| t.ops.len()).max().unwrap_or(0);
    let mut refs: std::collections::BTreeMap<(usize, u32), u32> = Default::default();
    for i in 0..longest {
        for (c, t) in tapes.iter().enumerate() {
            match t.ops.get(i) {
                Some(Op::Attach { payload, .. }) => {
                    let n = refs.entry((c, *payload)).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        let data = &t.payloads[*payload as usize].1;
                        let key = blobstore::BlobId::of(data).to_string();
                        timed(&mut put, || store.put(key.as_bytes(), data)).map_err(err)?;
                    }
                }
                Some(Op::Detach { payload, .. }) => {
                    let n = refs.get_mut(&(c, *payload)).expect("detach follows attach");
                    *n -= 1;
                    if *n == 0 {
                        let data = &t.payloads[*payload as usize].1;
                        let key = blobstore::BlobId::of(data).to_string();
                        store.remove(key.as_bytes()).map_err(err)?;
                    }
                }
                _ => {}
            }
        }
    }
    let mut get = Vec::new();
    for key in store.keys() {
        let v = timed(&mut get, || store.get(&key)).map_err(err)?;
        if v.is_none() {
            out.fail("scratch logstore lost a live key".into());
        }
    }
    let stats = store.stats();
    out.set(
        "logstore.disk_bytes_per_live_byte",
        stats.disk_bytes as f64 / stats.live_bytes.max(1) as f64,
    );
    let t = Instant::now();
    let report = store.merge().map_err(err)?;
    out.set("logstore.merge_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("logstore.bytes_rewritten", report.live_bytes as f64);
    out.set_p50_p99("logstore.put_us", "logstore.put_us.p99", &mut put);
    out.set_p50_p99("logstore.get_us", "logstore.get_us.p99", &mut get);
    Ok(())
}

/// `shard.overhead_ratio`: the sharded station's `shard.txn_us` p50
/// over the `relstore.txn_us` p50 of the same tape, same clients, same
/// decorators on a bare engine.
pub fn shard_overhead(out: &mut Outcome, cfg: &Cfg, len: usize) -> Result<(), String> {
    let bare = station::one_run(cfg, AUTHORING_MEM, len, true, Registry::new())?;
    let mut bare_txns = trace::durations(&bare.spans, "relstore.txn");
    let bare_p50 = percentile(&mut bare_txns, 0.50) as f64 / 1e3;
    let sharded_p50 = out.get("shard.txn_us");
    out.samples.insert(
        "shard.overhead_ratio.bare_txns".into(),
        bare_txns.len() as u64,
    );
    out.set(
        "shard.overhead_ratio",
        if bare_p50 > 0.0 {
            sharded_p50 / bare_p50
        } else {
            0.0
        },
    );
    Ok(())
}

/// `obs.registry_overhead_ratio`: a tenth of the tape on a station
/// whose router records into an enabled registry against one built
/// with `Registry::disabled()`, alternating, medians compared.
pub fn registry_overhead(out: &mut Outcome, cfg: &Cfg, len: usize) -> Result<(), String> {
    const PAIRS: usize = 3;
    let slice = (len / 10).max(200);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        on.push(station::one_run(cfg, AUTHORING_SHARDED, slice, false, Registry::new())?.wall_s);
        off.push(
            station::one_run(cfg, AUTHORING_SHARDED, slice, false, Registry::disabled())?.wall_s,
        );
    }
    out.set(
        "obs.registry_overhead_ratio",
        median_f64(&mut on) / median_f64(&mut off),
    );
    Ok(())
}
