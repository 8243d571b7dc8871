//! `DemandSim`'s whole output on one fixed 2 048-station trace, pinned
//! to recorded values: the report and every station's instance set,
//! with and without a per-station quota. Any change to the replica
//! tables, the fetch path or the eviction order moves one of them.

use netsim::{LinkSpec, Network, SimTime};
use wdoc_dist::{AccessEvent, BroadcastTree, DemandReport, DemandSim, DocSpec};

const STATIONS: usize = 2_048;
const DOCS: usize = 12;

/// xorshift64*: a fixed generator, so the trace never depends on a
/// library's choice of algorithm.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn docs() -> Vec<DocSpec> {
    (0..DOCS as u64)
        .map(|i| DocSpec {
            name: format!("lecture-{i:02}"),
            view_bytes: 8_000,
            full_bytes: 40_000 + 30_000 * i,
        })
        .collect()
}

/// 12 000 accesses from 128 attending stations; low document indices
/// are the popular ones (the smaller of two uniform draws).
fn trace() -> Vec<AccessEvent> {
    let mut rng = Rng(0x005E_ED0F_D15C);
    let mut at = 0u64;
    (0..12_000)
        .map(|_| {
            at += rng.next() % 2_000;
            let doc = (rng.next() % DOCS as u64).min(rng.next() % DOCS as u64);
            AccessEvent {
                at: SimTime::from_micros(at),
                position: 2 + rng.next() % 128,
                doc: doc as usize,
            }
        })
        .collect()
}

/// The report, and (instances held, FNV-1a of every (position, doc)
/// instance in position then document order) over all stations.
fn run(quota: Option<u64>) -> (DemandReport, u64, u64) {
    let (mut net, ids) =
        Network::uniform(STATIONS, LinkSpec::new(50_000_000, SimTime::from_millis(1)));
    let docs = docs();
    let mut sim = DemandSim::new(BroadcastTree::new(ids, 4), docs.clone(), 2);
    if let Some(q) = quota {
        sim.set_station_quota(q);
    }
    let report = sim.run(&mut net, &trace());
    let (mut held, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for (pos, sd) in sim.stations() {
        for (i, d) in docs.iter().enumerate() {
            if sd.has_instance(&d.name) {
                held += 1;
                for byte in pos.to_le_bytes().into_iter().chain([i as u8]) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    (report, held, digest)
}

fn report(fields: [u64; 7], mean_latency_us: f64) -> DemandReport {
    let [accesses, local_hits, remote_fetches, duplications, view_bytes, duplicated_bytes, replica_bytes] =
        fields;
    DemandReport {
        accesses,
        local_hits,
        remote_fetches,
        duplications,
        view_bytes,
        duplicated_bytes,
        mean_latency_us,
        replica_bytes,
    }
}

#[test]
fn unbounded_stations_reproduce_the_recorded_run() {
    let (got, held, digest) = run(None);
    let fields = [
        12_000,
        7_952,
        4_048,
        1_245,
        32_384_000,
        216_450_000,
        216_450_000,
    ];
    assert_eq!(got, report(fields, 499.0155833333333), "report");
    assert_eq!(
        (held, digest),
        (1_257, 1_522_267_706_261_782_707),
        "instance sets"
    );
}

#[test]
fn quota_bound_stations_reproduce_the_recorded_run() {
    let (got, held, digest) = run(Some(300_000));
    let fields = [
        12_000,
        2_603,
        9_397,
        5_200,
        75_176_000,
        764_620_000,
        27_900_000,
    ];
    assert_eq!(got, report(fields, 301417.6668333333), "report");
    assert_eq!(
        (held, digest),
        (219, 292_367_094_092_791_655),
        "instance sets"
    );
}
