//! `lecture_broadcast`: no station. 10 240 simulated stations on
//! 1 MB/s + 3 ms uplinks, fan-out 4. Each round, on fresh networks:
//!
//! * **A** — `dist::broadcast_course` of a 48-object course on one
//!   sequential `Network`;
//! * **B** — `DemandSim::run` of a 200 k-access Zipf trace from the
//!   2 048 attending stations, watermark 3;
//! * **C** — the same 48 objects one at a time through `broadcast_par`
//!   on `ParNet` (16 islands, 2 threads), each report compared with the
//!   sequential `broadcast` of that object.
//!
//! `dist` and `netsim` do all the work and every storage layer none.
//! In the paper's vocabulary the instructor's pre-broadcast is the
//! write path and a student's demand fetch the read path, which is how
//! the read/write end-to-end metrics read here.

use crate::stats::{better_third, lower_quartile, median_f64, percentile};
use crate::{Cfg, Outcome};
use blobstore::MediaKind;
use netsim::{LinkSpec, Network, ParNet, SimTime, StationId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wdoc_dist::broadcast::{CourseRelay, Relay};
use wdoc_dist::demand::Fetch;
use wdoc_dist::{
    broadcast, broadcast_course, broadcast_par, AccessEvent, BroadcastTree, CourseBroadcastReport,
    CourseObject, DemandReport, DemandSim, DocSpec,
};
use wdoc_workload::{generate_trace, sample_size, TraceSpec};

const STATIONS: usize = 10_240;
const FANOUT: u64 = 4;
const OBJECTS: usize = 48;
const COURSE: [(MediaKind, usize); 5] = [
    (MediaKind::StillImage, 24),
    (MediaKind::Audio, 10),
    (MediaKind::Animation, 7),
    (MediaKind::Video, 5),
    (MediaKind::Midi, 2),
];
const ACCESSES: usize = 200_000;
const WATERMARK: u64 = 3;
/// Stations that attend the lecture and issue the trace's accesses;
/// the rest keep references only (§4: a station that does not review
/// a lecture does not duplicate it).
const ATTENDING: u64 = 2_048;
const ISLANDS: usize = 16;
/// Never more threads than the 2-core host has.
const THREADS: usize = 2;
const SETUPS: usize = 5;
/// Rebuilds of the simulator after each round of the untraced run;
/// `recovery_s` is the lower quartile of all of them.
const REBUILDS_PER_ROUND: usize = 5;
/// A remote page view moves at most this much of an object.
const VIEW_BYTES: u64 = 8 << 10;
/// Rounds per `--seconds` second: one round (networks rebuilt, A, B,
/// 48 × C with its sequential twin) took about 1.7 s at the commit
/// that added the benchmark.
const ROUNDS_PER_SECOND: f64 = 0.5;

fn link() -> LinkSpec {
    LinkSpec::new(1_000_000, SimTime::from_millis(3))
}

struct Inputs {
    objects: Vec<CourseObject>,
    docs: Vec<DocSpec>,
    trace: Vec<AccessEvent>,
}

fn inputs(seed: u64, accesses: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1EC7_04E5);
    // The courseware mix in exact proportion (`MediaMix::courseware`:
    // 50 % images, 20 % audio, 15 % animation, 10 % video, 5 % MIDI);
    // the seed draws the sizes. Drawing the kinds too would let the
    // number of videos — most of the course's bytes — move the byte
    // ratios 30 % from seed to seed.
    let mut objects: Vec<CourseObject> = COURSE
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .map(|kind| CourseObject {
            kind,
            bytes: sample_size(&mut rng, kind, 1),
        })
        .collect();
    debug_assert_eq!(objects.len(), OBJECTS);
    // Object i is the trace's i-th most popular document. Small first:
    // page images are what students open most and the lecture videos
    // least, whatever the seed — otherwise which kind happens to be
    // hot decides the replica bytes, and they move 2x between seeds.
    objects.sort_by_key(|o| o.bytes);
    let docs = objects
        .iter()
        .enumerate()
        .map(|(i, o)| DocSpec {
            name: format!("lecture-{i:02}"),
            view_bytes: o.bytes.min(VIEW_BYTES),
            full_bytes: o.bytes,
        })
        .collect();
    let trace = generate_trace(
        &mut rng,
        &TraceSpec {
            accesses,
            stations: ATTENDING,
            docs: OBJECTS,
            zipf_s: crate::tape::ZIPF_S,
            mean_gap_us: 20_000,
        },
    );
    Inputs {
        objects,
        docs,
        trace,
    }
}

/// The networks of one round's phases A and B, built ahead of the clock.
struct Stage {
    course_net: Network<CourseRelay>,
    ids: Vec<StationId>,
    demand_net: Network<Fetch>,
    demand: DemandSim,
}

fn stage(inp: &Inputs, build_ms: &mut Vec<f64>) -> Stage {
    let t = Instant::now();
    let (course_net, ids) = Network::uniform(STATIONS, link());
    build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let (demand_net, demand_ids) = Network::uniform(STATIONS, link());
    let demand = DemandSim::new(
        BroadcastTree::new(demand_ids, FANOUT),
        inp.docs.clone(),
        WATERMARK,
    );
    Stage {
        course_net,
        ids,
        demand_net,
        demand,
    }
}

#[derive(Default)]
struct Totals {
    wall_a: Vec<f64>,
    wall_b: Vec<f64>,
    events_a: u64,
    events_b: u64,
    events_c: u64,
    wall_c: f64,
    wall_seq_objects: f64,
    /// Per round: picoseconds of phase B per access.
    read_ps: Vec<Vec<u64>>,
    /// Per object: nanoseconds of its ParNet broadcast.
    write_ns: Vec<Vec<u64>>,
    build_ms: Vec<f64>,
    course: Option<CourseBroadcastReport>,
    demand: Option<DemandReport>,
    /// Replica instances on student stations per course object after B.
    copies_per_object: f64,
    peak_rss_mb: Vec<f64>,
}

fn round(inp: &Inputs, st: Stage, r: usize, tot: &mut Totals, out: &mut Outcome) {
    let Stage {
        mut course_net,
        ids,
        mut demand_net,
        mut demand,
    } = st;
    // A
    let t = Instant::now();
    let course = broadcast_course(&mut course_net, &ids, &inp.objects, |_| FANOUT);
    tot.wall_a.push(t.elapsed().as_secs_f64());
    tot.events_a += course_net.total_msgs();
    out.attempted += 1;
    match &tot.course {
        None => tot.course = Some(course),
        Some(first) if *first != course => {
            out.failed += 1;
            out.fail("course broadcast reports differ between rounds".into());
        }
        Some(_) => {}
    }
    drop(course_net);
    // B
    let t = Instant::now();
    let report = demand.run(&mut demand_net, &inp.trace);
    let wall = t.elapsed();
    tot.wall_b.push(wall.as_secs_f64());
    tot.events_b += demand_net.total_msgs();
    tot.read_ps[r].push(wall.as_nanos() as u64 * 1_000 / inp.trace.len().max(1) as u64);
    out.attempted += 1;
    match &tot.demand {
        None => tot.demand = Some(report),
        Some(first) if *first != report => {
            out.failed += 1;
            out.fail("demand reports differ between rounds".into());
        }
        Some(_) => {}
    }
    if tot.copies_per_object == 0.0 {
        let copies: usize = demand
            .stations()
            .iter()
            .filter(|(pos, _)| **pos != 1)
            .map(|(_, sd)| inp.docs.iter().filter(|d| sd.has_instance(&d.name)).count())
            .sum();
        tot.copies_per_object = copies as f64 / OBJECTS as f64;
    }
    drop((demand_net, demand));
    // C
    for o in &inp.objects {
        let t = Instant::now();
        let (mut pnet, pids) = ParNet::<Relay>::uniform(STATIONS, link(), ISLANDS);
        tot.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let tree = BroadcastTree::new(pids, FANOUT);
        let t = Instant::now();
        let par = broadcast_par(&mut pnet, &tree, o.bytes, THREADS);
        let wall = t.elapsed();
        tot.wall_c += wall.as_secs_f64();
        tot.events_c += pnet.total_msgs();
        tot.write_ns[r].push(wall.as_nanos() as u64);
        drop(pnet);

        let (mut snet, sids) = Network::<Relay>::uniform(STATIONS, link());
        let tree = BroadcastTree::new(sids, FANOUT);
        let t = Instant::now();
        let seq = broadcast(&mut snet, &tree, o.bytes);
        tot.wall_seq_objects += t.elapsed().as_secs_f64();
        out.attempted += 1;
        if par != seq {
            out.failed += 1;
            out.fail(format!(
                "broadcast_par differs from broadcast for a {} byte object",
                o.bytes
            ));
        } else if par.arrivals.len() != STATIONS - 1 {
            out.failed += 1;
            out.fail(format!(
                "{} arrivals, expected {}",
                par.arrivals.len(),
                STATIONS - 1
            ));
        }
    }
}

pub fn run(cfg: &Cfg, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rounds = (cfg.seconds * ROUNDS_PER_SECOND).round().max(1.0) as usize;
    let mut accesses = ACCESSES;
    if traced {
        rounds = (rounds / 2).max(1);
    }
    if cfg.smoke {
        rounds = 1;
        accesses /= 50;
    }
    let mut tot = Totals {
        read_ps: vec![Vec::new(); rounds],
        write_ns: vec![Vec::new(); rounds],
        ..Totals::default()
    };

    // Set-up: the course, the trace and the first round's networks.
    let setups = if cfg.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut gen_s = 0.0;
    let mut first = None;
    for _ in 0..setups {
        drop(first.take());
        let t = Instant::now();
        let inp = inputs(cfg.seed, accesses);
        gen_s = t.elapsed().as_secs_f64();
        let st = stage(&inp, &mut tot.build_ms);
        setup_s.push(t.elapsed().as_secs_f64());
        first = Some((inp, st));
    }
    let (inp, mut next) = first.map(|(i, s)| (i, Some(s))).expect("one set-up");
    let setup_median = better_third(&setup_s, false);

    // Nothing survives a kill of the simulator: recovery is a rebuild,
    // the work of a set-up. It takes tens of milliseconds, so there are
    // many, in a batch after every round: a disturbed stretch of the
    // invocation then meets a part of the sample only.
    let rebuilds_per_round = match (traced, cfg.smoke) {
        (true, _) => 0,
        (false, true) => 1,
        (false, false) => REBUILDS_PER_ROUND,
    };
    let mut rebuild_s = Vec::new();
    for r in 0..rounds {
        crate::reset_peak_rss();
        let st = next
            .take()
            .unwrap_or_else(|| stage(&inp, &mut tot.build_ms));
        round(&inp, st, r, &mut tot, &mut out);
        tot.peak_rss_mb.push(crate::peak_rss_mb());
        for _ in 0..rebuilds_per_round {
            let t = Instant::now();
            let again = inputs(cfg.seed, accesses);
            let st = stage(&again, &mut Vec::new());
            rebuild_s.push(t.elapsed().as_secs_f64());
            drop((again, st));
        }
    }

    let course = tot.course.as_ref().expect("one round ran");
    let demand = tot.demand.as_ref().expect("one round ran");
    // Every round delivers the same messages; the rate is the third
    // best round's, so disturbed rounds do not move it.
    let events_per_round = (tot.events_a + tot.events_b) as f64 / rounds as f64;
    let rates: Vec<f64> = tot
        .wall_a
        .iter()
        .zip(&tot.wall_b)
        .map(|(a, b)| events_per_round / (a + b))
        .collect();
    let sim_events_per_s = better_third(&rates, true);
    let par_events_per_s = tot.events_c as f64 / tot.wall_c;
    out.samples.insert("rounds".into(), rounds as u64);
    out.samples
        .insert("write_latencies".into(), (rounds * OBJECTS) as u64);
    out.samples.insert("read_latencies".into(), rounds as u64);
    if traced {
        out.set("dist.broadcast_wall_ms", median_f64(&mut tot.wall_a) * 1e3);
        out.set("dist.demand_wall_ms", median_f64(&mut tot.wall_b) * 1e3);
        out.set(
            "dist.completion_sim_us",
            course.completion.as_micros() as f64,
        );
        out.set("dist.bytes_total", course.total_bytes as f64);
        out.set(
            "dist.demand.remote_fetch_share",
            demand.remote_fetches as f64 / demand.accesses.max(1) as f64,
        );
        out.set(
            "netsim.events",
            ((tot.events_a + tot.events_b + tot.events_c) / rounds as u64) as f64,
        );
        out.set("netsim.topology_build_ms", median_f64(&mut tot.build_ms));
        // Phase C's sequential twins move the same messages.
        let seq_object_rate = tot.events_c as f64 / tot.wall_seq_objects;
        out.set("netsim.par.speedup", par_events_per_s / seq_object_rate);
        out.set("bench.sim_events_per_s", sim_events_per_s);
        out.set("bench.par_events_per_s", par_events_per_s);
        let mut reads: Vec<u64> = tot.read_ps.concat();
        out.set(
            "bench.read_p99_us",
            percentile(&mut reads, 0.99) as f64 / 1e6,
        );
        let mut writes: Vec<u64> = tot.write_ns.concat();
        out.set(
            "bench.write_p99_us",
            percentile(&mut writes, 0.99) as f64 / 1e3,
        );
        out.set("bench.tape_gen_s", gen_s);
        out.set("bench.clients", THREADS as f64);
    } else {
        out.set("setup_s", setup_median);
        out.samples.insert("setups".into(), setups as u64);
        out.set("ops_per_s", sim_events_per_s);
        // One slice per round: the third-best round's median.
        let p50_of = |slices: &mut [Vec<u64>]| {
            let per_round: Vec<f64> = slices
                .iter_mut()
                .filter(|s| !s.is_empty())
                .map(|s| percentile(s, 0.50) as f64)
                .collect();
            better_third(&per_round, false)
        };
        out.set("read_p50_us", p50_of(&mut tot.read_ps) / 1e6);
        out.set("write_p50_us", p50_of(&mut tot.write_ns) / 1e3);
        out.set("recovery_s", lower_quartile(&rebuild_s));
        out.samples
            .insert("rebuilds".into(), rebuild_s.len() as u64);
        // Each object's replica bytes over its own size, averaged over
        // the objects: pooled bytes would follow the five videos' drawn
        // sizes, 10 % from seed to seed.
        out.set("stored_bytes_per_user_byte", tot.copies_per_object);
        // The least-disturbed round: see `station::run_end_to_end`.
        out.set(
            "peak_rss_mb",
            tot.peak_rss_mb
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        );
    }
    Ok(out)
}
