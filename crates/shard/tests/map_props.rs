//! Property tests pinning the guarantees the shard map advertises:
//! placement is a pure function of `(key, topology)`, load stays
//! within 2× of ideal at 16 shards, removing a station remaps only the
//! keys that station owned, and the ring itself does not move between
//! versions.

use netsim::StationId;
use proptest::prelude::*;
use shard::ShardMap;
use std::collections::BTreeMap;

fn keys(n: u32) -> impl Iterator<Item = String> {
    (0..n).map(|k| format!("doc/{k}/page.html"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinism: two maps built from the same topology agree on
    /// every key, independent of construction order or process state.
    #[test]
    fn placement_is_pure(n in 1u32..20, seed in any::<u32>()) {
        let a = ShardMap::uniform(n);
        let b = ShardMap::uniform(n);
        for k in 0..64u32 {
            let key = format!("k{}-{seed}", k);
            let shard = a.shard_of(key.as_bytes());
            prop_assert_eq!(shard, b.shard_of(key.as_bytes()));
            prop_assert_eq!(a.primary_of(key.as_bytes()), a.stations()[shard]);
        }
    }

    /// Minimal disruption: dropping one station remaps only that
    /// station's keys; every survivor keeps every key it owned.
    #[test]
    fn removal_remaps_only_the_lost_stations_keys(
        n in 2u32..16,
        victim_ix in any::<u32>(),
        salt in any::<u32>(),
    ) {
        let map = ShardMap::uniform(n);
        let victim = map.stations()[victim_ix as usize % map.stations().len()];
        let shrunk = map.without_station(victim);
        for k in 0..256u32 {
            let key = format!("k{k}.{salt}");
            let before = map.primary_of(key.as_bytes());
            let after = shrunk.primary_of(key.as_bytes());
            if before == victim {
                prop_assert_ne!(after, victim, "victim still owns {}", key);
            } else {
                prop_assert_eq!(before, after, "unaffected key {} moved", key);
            }
        }
    }
}

/// Balance: with the default vnode count, 16 stations each hold less
/// than 2× the ideal share of a large uniform keyspace (and nobody
/// starves outright).
#[test]
fn sixteen_shards_stay_within_twice_ideal() {
    let map = ShardMap::uniform(16);
    let total = 32_000u32;
    let mut load: BTreeMap<StationId, u32> = BTreeMap::new();
    for key in keys(total) {
        *load.entry(map.primary_of(key.as_bytes())).or_default() += 1;
    }
    let ideal = f64::from(total) / 16.0;
    assert_eq!(load.len(), 16, "some station owns no keys at all");
    for (station, n) in load {
        let ratio = f64::from(n) / ideal;
        assert!(
            ratio < 2.0,
            "station {station:?} holds {n} keys ({ratio:.2}x ideal)"
        );
        assert!(
            ratio > 0.25,
            "station {station:?} starves at {n} keys ({ratio:.2}x ideal)"
        );
    }
}

/// The keys the pinned-placement test routes: text keys shaped like
/// document paths, and the router's tagged encoding (`b'i'` + little-
/// endian `i64`) of the small integer ids the wdoc tables key on.
fn pinned_keys() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = keys(6).map(String::into_bytes).collect();
    for id in [1i64, 2, 3, 7, 42, 1000] {
        let mut b = vec![b'i'];
        b.extend_from_slice(&id.to_le_bytes());
        out.push(b);
    }
    out
}

/// Placement across versions: `shard_of` for a fixed list of keys at
/// 1, 2, 4 and 8 shards, as recorded when the ring was first pinned.
/// Two maps built by the same code always agree (`placement_is_pure`);
/// only this test sees a ring change that moves rows between shards,
/// which would re-lay every sharded station's data on disk.
#[test]
fn shard_of_is_pinned_across_versions() {
    let pinned: [(u32, [usize; 12]); 4] = [
        (1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (2, [1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1]),
        (4, [3, 2, 2, 0, 3, 3, 3, 3, 1, 1, 1, 2]),
        (8, [3, 2, 2, 7, 7, 3, 3, 3, 1, 7, 5, 2]),
    ];
    for (n, want) in pinned {
        let map = ShardMap::uniform(n);
        let got: Vec<usize> = pinned_keys().iter().map(|k| map.shard_of(k)).collect();
        assert_eq!(got, want, "placement moved at {n} shards");
    }
}
