//! The relay paths' outputs pinned to values recorded before the event
//! queue sorted its tied ticks and the course broadcast stopped keying
//! a map per delivery: `broadcast_course`'s whole report on a fixed
//! 2 048-station, 48-object course, and `broadcast_par` against
//! `broadcast` at 4 096 stations and 16 islands, where uniform links
//! tie hundreds of arrivals on one microsecond.

use blobstore::MediaKind;
use netsim::{LinkSpec, Network, ParNet, SimTime};
use std::collections::BTreeMap;
use wdoc_dist::{broadcast, broadcast_course, broadcast_par, BroadcastTree, CourseObject};

fn link() -> LinkSpec {
    LinkSpec::new(1_000_000, SimTime::from_millis(3))
}

/// 48 objects in the courseware mix; a fixed xorshift draws each size
/// from its kind's range.
fn course() -> Vec<CourseObject> {
    let mix = [
        (MediaKind::StillImage, 24, 20_000),
        (MediaKind::Audio, 10, 100_000),
        (MediaKind::Animation, 7, 50_000),
        (MediaKind::Video, 5, 1_000_000),
        (MediaKind::Midi, 2, 2_000),
    ];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    mix.iter()
        .flat_map(|&(kind, n, low)| std::iter::repeat_n((kind, low), n))
        .map(|(kind, low)| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            CourseObject {
                kind,
                bytes: low + x % (9 * low),
            }
        })
        .collect()
}

#[test]
fn course_broadcast_reproduces_the_recorded_report() {
    let (mut net, ids) = Network::uniform(2_048, link());
    let report = broadcast_course(&mut net, &ids, &course(), |kind| match kind {
        MediaKind::Video => 2,
        MediaKind::Midi => 8,
        _ => 4,
    });
    let per_kind: Vec<(&str, u64)> = report
        .per_kind
        .iter()
        .map(|(k, t)| (k.as_str(), t.as_micros()))
        .collect();
    assert_eq!(report.completion.as_micros(), 241_233_450, "completion");
    let recorded = vec![
        ("animation", 59_260_824),
        ("audio", 53_618_056),
        ("image", 16_844_212),
        ("midi", 129_254_989),
        ("video", 241_233_450),
    ];
    assert_eq!(per_kind, recorded, "per-kind completion");
    assert_eq!(report.total_bytes, 74_794_078_189, "bytes");
}

#[test]
fn parallel_broadcast_matches_sequential_on_tied_arrivals() {
    const STATIONS: usize = 4_096;
    let (mut snet, ids) = Network::uniform(STATIONS, link());
    let seq = broadcast(&mut snet, &BroadcastTree::new(ids, 4), 100_000);
    let (mut pnet, ids) = ParNet::uniform(STATIONS, link(), 16);
    let par = broadcast_par(&mut pnet, &BroadcastTree::new(ids, 4), 100_000, 2);
    assert_eq!(par, seq);
    let mut per_tick: BTreeMap<SimTime, u64> = BTreeMap::new();
    for t in seq.arrivals.values() {
        *per_tick.entry(*t).or_default() += 1;
    }
    let busiest = per_tick.values().max().copied();
    assert_eq!(seq.completion.as_micros(), 2_218_000, "completion");
    assert_eq!(
        (per_tick.len(), busiest),
        (67, Some(422)),
        "distinct ticks, busiest tick"
    );
}
