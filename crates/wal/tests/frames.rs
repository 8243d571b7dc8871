//! The binary frame codec against hostile bytes: every record kind
//! round-trips; a mutated payload decodes to an error or to some record
//! but never panics; a flipped bit never gets past the CRC; a forged
//! length or count never sizes an allocation; and decoding is linear in
//! the payload. Run it optimized too (`cargo test --release -p wal
//! --test frames`).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use relstore::{ColumnType, FkAction, Row, RowId, Snapshot, TableSchema, TableSnapshot, Value};
use std::collections::BTreeMap;
use std::time::Duration;
use wal::record::{decode, encode_frame, scan_raw, FRAME_HEADER, MAGIC};
use wal::{WalError, WalRecord};

fn value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..7) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Int(rng.gen()),
        3 => Value::Float(f64::from(rng.gen::<u32>()) / 7.0),
        4 => Value::Text("ü".repeat(rng.gen_range(0..20))),
        5 => Value::Bytes((0..rng.gen_range(0..40)).map(|_| rng.gen()).collect()),
        _ => Value::Timestamp(rng.gen()),
    }
}

fn row(rng: &mut StdRng) -> Row {
    (0..rng.gen_range(0..6)).map(|_| value(rng)).collect()
}

fn schema(name: &str) -> TableSchema {
    TableSchema::builder(name)
        .column("id", ColumnType::Int)
        .column("owner", ColumnType::Text)
        .nullable_column("parent", ColumnType::Int)
        .column("body", ColumnType::Bytes)
        .column("at", ColumnType::Timestamp)
        .primary_key(&["id"])
        .index("by_owner", &["owner", "at"], false)
        .foreign_key(&["parent"], name, &["id"], FkAction::SetNull)
        .build()
        .unwrap()
}

/// Ids anywhere in the varint range, small ones most often.
fn id(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> rng.gen_range(0..64)
}

/// One record of every kind, a checkpoint, a joint commit and two
/// shard-prefixed records included.
fn records(rng: &mut StdRng) -> Vec<WalRecord> {
    let table = || "script".to_owned();
    let mut tables = BTreeMap::new();
    for name in ["a", "b"] {
        let rows = (0..rng.gen_range(0..8))
            .map(|_| (RowId(id(rng)), row(rng)))
            .collect();
        let schema = schema(name);
        tables.insert(name.to_owned(), TableSnapshot { schema, rows });
    }
    vec![
        WalRecord::Begin { txn: id(rng) },
        WalRecord::Commit { txn: id(rng) },
        WalRecord::Abort { txn: id(rng) },
        WalRecord::Insert {
            txn: id(rng),
            table: table(),
            row: RowId(id(rng)),
            after: row(rng),
        },
        WalRecord::Update {
            txn: id(rng),
            table: table(),
            row: RowId(id(rng)),
            before: row(rng),
            after: row(rng),
        },
        WalRecord::Delete {
            txn: id(rng),
            table: table(),
            row: RowId(id(rng)),
            before: row(rng),
        },
        WalRecord::CreateTable {
            schema: schema("course"),
        },
        WalRecord::Checkpoint {
            snapshot: Snapshot { tables },
            next_txn: id(rng),
            dirty_pages: (0..rng.gen_range(0..4))
                .map(|_| (id(rng), id(rng)))
                .collect(),
        },
        joint_commit(rng),
        WalRecord::Shard {
            shard: shard(rng),
            record: Box::new(WalRecord::Delete {
                txn: id(rng),
                table: table(),
                row: RowId(id(rng)),
                before: row(rng),
            }),
        },
        WalRecord::Shard {
            shard: shard(rng),
            record: Box::new(WalRecord::Commit { txn: id(rng) }),
        },
    ]
}

/// A shard a prefix may name: 1 or above.
fn shard(rng: &mut StdRng) -> usize {
    id(rng).max(1) as usize
}

/// A joint commit of 2–5 parts, shards ascending from 0–2.
fn joint_commit(rng: &mut StdRng) -> WalRecord {
    let mut shard = rng.gen_range(0..3);
    let parts = (0..rng.gen_range(2..6))
        .map(|_| {
            let part = (shard, id(rng));
            shard += rng.gen_range(1..1000);
            part
        })
        .collect();
    WalRecord::JointCommit { parts }
}

fn payload(rec: &WalRecord) -> Vec<u8> {
    encode_frame(rec).unwrap()[FRAME_HEADER..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_record_kind_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for rec in records(&mut rng) {
            let back = decode(8, &payload(&rec)).unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        }
    }

    #[test]
    fn mutated_payloads_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for rec in records(&mut rng) {
            let clean = payload(&rec);
            for _ in 0..32 {
                let mut bytes = clean.clone();
                match rng.gen_range(0..4) {
                    0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
                    1 => bytes.extend((0..rng.gen_range(1..9)).map(|_| rng.gen::<u8>())),
                    2 => {
                        // A forged length or count: 0xFF runs read as
                        // the largest varints and u32 lengths there are.
                        let at = rng.gen_range(0..bytes.len());
                        let end = (at + rng.gen_range(1..10)).min(bytes.len());
                        bytes[at..end].fill(0xFF);
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..4) {
                            let at = rng.gen_range(0..bytes.len());
                            bytes[at] = rng.gen();
                        }
                    }
                }
                // Either outcome is fine; a panic or an abort is not.
                let _ = decode(8, &bytes);
            }
            let garbage: Vec<u8> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
            let _ = decode(8, &garbage);
        }
    }

    #[test]
    fn a_flipped_bit_never_passes_the_crc(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = MAGIC.to_vec();
        for rec in records(&mut rng) {
            log.extend_from_slice(&encode_frame(&rec).unwrap());
        }
        // A flip in a header may also misalign or tear the stream: that
        // is an error or a torn tail, never a scan that accepts all 11
        // frames.
        let bit = rng.gen_range(MAGIC.len() * 8..log.len() * 8);
        log[bit / 8] ^= 1 << (bit % 8);
        match scan_raw(&log) {
            Err(WalError::Corrupt { .. }) => {}
            Ok(raw) => prop_assert!(raw.frames.len() < 11, "a damaged log scanned clean"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}

#[test]
fn forged_counts_are_refused_without_allocating() {
    let mut rng = StdRng::seed_from_u64(5);
    let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
    for rec in records(&mut rng) {
        let clean = payload(&rec);
        // Splice a 2^63-ish varint, or a 4 GiB length, at every offset.
        for at in 1..clean.len() {
            for forged in [&huge[..], &[0xFF; 4][..]] {
                let mut bytes = clean[..at].to_vec();
                bytes.extend_from_slice(forged);
                bytes.extend_from_slice(&clean[at..]);
                let _ = decode(8, &bytes);
            }
        }
    }
}

/// One decode of `payload`, by the decoding thread's own run time.
fn decode_time(payload: &[u8]) -> Duration {
    obs::time_on_cpu(|| decode(8, payload).unwrap()).1
}

#[test]
fn decoding_is_linear_in_the_payload() {
    let checkpoint = |rows: u64| {
        let mut rng = StdRng::seed_from_u64(rows);
        let rows = (0..rows).map(|i| (RowId(i), row(&mut rng))).collect();
        let mut tables = BTreeMap::new();
        tables.insert(
            "a".to_owned(),
            TableSnapshot {
                schema: schema("a"),
                rows,
            },
        );
        let snapshot = Snapshot { tables };
        let dirty_pages = Vec::new();
        payload(&WalRecord::Checkpoint {
            snapshot,
            next_txn: 1,
            dirty_pages,
        })
    };
    let wide = |fields: usize| {
        let after = vec![Value::Text("x".repeat(1024)); fields];
        payload(&WalRecord::Insert {
            txn: 1,
            table: "t".into(),
            row: RowId(1),
            after,
        })
    };
    for (n, two_n) in [
        (checkpoint(4_000), checkpoint(8_000)),
        (wide(400), wide(800)),
    ] {
        // Nine decodes of each, the n and 2n samples alternating, so a
        // slow stretch of the host (a build beside the tests) lands on
        // both sizes; the minimum of each is kept.
        let (mut t1, mut t2) = (Duration::MAX, Duration::MAX);
        for _ in 0..9 {
            t1 = t1.min(decode_time(&n));
            t2 = t2.min(decode_time(&two_n));
        }
        assert!(
            t2 < t1 * 3,
            "{} B took {t2:?}, {} B took {t1:?}",
            two_n.len(),
            n.len()
        );
    }
}

/// The station shapes — a shard prefix, and a joint commit's part list —
/// against every cut and every bit flip: a cut payload is corrupt, a
/// framed flip never gets past the CRC, and a flipped payload decodes
/// to an error or some record, never a panic.
#[test]
fn station_frames_refuse_every_cut_and_flip() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..16 {
        let shapes = [
            joint_commit(&mut rng),
            WalRecord::Shard {
                shard: shard(&mut rng),
                record: Box::new(WalRecord::Begin { txn: id(&mut rng) }),
            },
        ];
        for rec in shapes {
            let clean = payload(&rec);
            for cut in 0..clean.len() {
                assert!(
                    matches!(decode(8, &clean[..cut]), Err(WalError::Corrupt { .. })),
                    "{rec:?} cut to {cut} bytes decoded"
                );
            }
            let mut log = MAGIC.to_vec();
            log.extend_from_slice(&encode_frame(&rec).unwrap());
            for bit in MAGIC.len() * 8..log.len() * 8 {
                let mut bytes = log.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                match scan_raw(&bytes) {
                    Err(WalError::Corrupt { .. }) => {}
                    // A flipped length can only make the frame look torn.
                    Ok(raw) => assert!(raw.frames.is_empty(), "bit {bit} of {rec:?} passed"),
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            for bit in 0..clean.len() * 8 {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let _ = decode(8, &bytes);
            }
        }
    }
}

/// Hand-built station payloads the encoder never writes: each is
/// refused, and a forged part count is bounded by the bytes that remain
/// before anything is allocated for it.
#[test]
fn malformed_station_frames_are_corrupt() {
    const JOINT: u8 = 12;
    const SHARD: u8 = 13;
    const COMMIT: u8 = 2;
    let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
    let mut forged_count = vec![JOINT];
    forged_count.extend_from_slice(&huge);
    forged_count.extend_from_slice(&[0, 1, 1, 1]);
    for (what, bytes) in [
        ("a prefix naming shard 0", vec![SHARD, 0, COMMIT, 1]),
        (
            "a prefix wrapping a prefix",
            vec![SHARD, 1, SHARD, 2, COMMIT, 1],
        ),
        (
            "a prefix wrapping a joint commit",
            vec![SHARD, 1, JOINT, 2, 0, 1, 1, 1],
        ),
        ("a prefix with no record", vec![SHARD, 1]),
        (
            "a prefix whose shard overflows",
            [&[SHARD][..], &[0xFF; 10], &[COMMIT, 1]].concat(),
        ),
        ("a joint commit of no part", vec![JOINT, 0]),
        (
            "a joint commit naming a shard twice",
            vec![JOINT, 2, 1, 1, 1, 2],
        ),
        (
            "a joint commit with shards descending",
            vec![JOINT, 2, 2, 1, 1, 2],
        ),
        ("a part count past the payload", vec![JOINT, 3, 0, 1, 1, 1]),
        ("a 2^63 part count", forged_count),
        (
            "trailing bytes after the parts",
            vec![JOINT, 2, 0, 1, 1, 1, 0],
        ),
    ] {
        assert!(
            matches!(decode(8, &bytes), Err(WalError::Corrupt { .. })),
            "{what} decoded"
        );
    }
}
