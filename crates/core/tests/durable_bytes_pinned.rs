//! The durable station's stored bytes, pinned. A seeded single-client
//! script of add, update, attach and detach verbs runs on
//! `open_durable_logged` over a 2-page log-structured pool, with one
//! checkpoint; then the path, length and FNV-64 of every file under the
//! station directory must equal the values recorded below. The script
//! rotates and prunes `wal.d/` segments, merges `blobs.d/` and spills
//! pages to `pages.d/`, so a change to the WAL or logstore framing, the
//! row codec or the blob records that moves one stored byte fails
//! here. A change that means to move them re-records the table and
//! says so.

use relstore::PoolConfig;
use std::path::{Path, PathBuf};
use wdoc_core::dbms::{DatabaseInfo, WebDocDb};
use wdoc_core::ids::{DbName, ScriptName, UserId};
use wdoc_core::tables::Script;

/// `(path under the station directory, length, FNV-1a 64 of the bytes)`.
/// The `wal.d/` rows were re-recorded when the integrity walk began
/// reading one BFS level per transaction: the log holds the same
/// records, with fewer transaction ids and so shorter varints.
const PINNED: &[(&str, u64, u64)] = &[
    ("blobs.d/seg-000000000036.hint", 538, 0x6386a56a13b04480),
    ("blobs.d/seg-000000000036.log", 96739, 0xa45ea63608fabd97),
    ("blobs.d/seg-000000000037.hint", 190, 0x9b114ff8e944c45e),
    ("blobs.d/seg-000000000037.log", 66906, 0x73b494b01488e80f),
    ("blobs.d/seg-000000000038.hint", 364, 0xff81a91021ca44ff),
    ("blobs.d/seg-000000000038.log", 78501, 0x3efff64cc1b2f7fd),
    ("blobs.d/seg-000000000039.hint", 596, 0xa4c85edc5eedebbb),
    ("blobs.d/seg-000000000039.log", 34186, 0x54611b60782f8eff),
    ("blobs.d/seg-000000000040.log", 41684, 0x73148cb09fda0d43),
    ("pages.d/seg-000000000001.log", 850056, 0x58b42d2dbc54dd66),
    ("wal.d/wal-00000000000083f3.seg", 13660, 0x16fa369cfb035e22),
    ("wal.d/wal-000000000000b93f.seg", 4173, 0x5abd486cd72e7122),
    ("wal.d/wal-000000000000c97c.seg", 4283, 0x4c8b4cad6dcd2cad),
    ("wal.d/wal-000000000000da27.seg", 4177, 0xfbe3fcba02ab287e),
    ("wal.d/wal-000000000000ea68.seg", 4170, 0x22deb4d9ce59ab42),
    ("wal.d/wal-000000000000faa2.seg", 4311, 0xa094edd35c3c8676),
    ("wal.d/wal-0000000000010b69.seg", 4364, 0x130e3d17d289a3ec),
    ("wal.d/wal-0000000000011c65.seg", 4388, 0x1fa80784b0fd85ee),
    ("wal.d/wal-0000000000012d79.seg", 4197, 0x679b3ea507a96c3e),
    ("wal.d/wal-0000000000013dce.seg", 2750, 0xebb591f4672646b1),
];

const VERBS: u32 = 400;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every file under `root`, recursively, sorted by its relative path.
fn files(root: &Path) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                out.push((rel.replace('\\', "/"), bytes.len() as u64, fnv64(&bytes)));
            }
        }
    }
    out.sort();
    out
}

fn script(i: u64, rev: u64) -> Script {
    Script {
        name: ScriptName::new(format!("script-{i:03}")),
        db: DbName::new("pinned"),
        keywords: vec![format!("kw-{}", i % 7)],
        author: UserId::new(format!("author-{}", i % 5)),
        version: 1,
        created: 1_000 + i,
        description: format!("script {i}, revision {rev}"),
        expected_completion: None,
        percent_complete: (rev % 101) as i64,
    }
}

/// Play the script on a fresh station under `dir` and drop it.
fn play(dir: &Path) {
    let opts = wal::WalOptions {
        sync_data: false,
        segment_bytes: Some(4 << 10),
        pool: PoolConfig::log(dir.join("pages.d"), 2),
        ..wal::WalOptions::default()
    };
    let cfg = logstore::LogConfig {
        segment_bytes: 64 << 10,
        ..logstore::LogConfig::default()
    };
    let (db, _) = WebDocDb::open_durable_logged(dir, opts, cfg).unwrap();
    db.create_database(&DatabaseInfo {
        name: DbName::new("pinned"),
        keywords: vec!["bytes".into()],
        author: UserId::new("author-0"),
        version: 1,
        created: 1,
    })
    .unwrap();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut scripts = 0u64;
    let mut attached: Vec<(u64, blobstore::BlobId)> = Vec::new();
    for step in 0..VERBS {
        if step == VERBS / 2 {
            db.checkpoint().unwrap();
        }
        match rng.below(4) {
            _ if scripts == 0 => {}
            0 => {
                let rev = rng.next();
                let i = rng.below(scripts);
                db.update_script(&script(i, 0).name, |s| {
                    s.description = format!("script {i}, revision {rev}");
                    s.percent_complete = (rev % 101) as i64;
                })
                .unwrap();
                continue;
            }
            1 => {
                let i = rng.below(scripts);
                let len = 1_024 + rng.below(39 * 1_024) as usize;
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let meta = db
                    .attach_script_resource(
                        &script(i, 0).name,
                        blobstore::MediaKind::StillImage,
                        data,
                    )
                    .unwrap();
                attached.push((i, meta.id));
                continue;
            }
            2 if !attached.is_empty() => {
                let (i, id) = attached.swap_remove(rng.below(attached.len() as u64) as usize);
                db.detach_script_resource(&script(i, 0).name, id).unwrap();
                continue;
            }
            _ => {}
        }
        db.add_script(&script(scripts, u64::from(step))).unwrap();
        scripts += 1;
    }
    let blobs = db.blobs().log_stats().unwrap();
    assert!(blobs.merges >= 1, "the script must merge blobs.d/");
    drop(db);
    assert!(
        std::fs::read_dir(dir.join("pages.d")).unwrap().count() > 0,
        "the script must spill pages"
    );
}

#[test]
fn durable_station_bytes_match_the_pinned_table() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wdoc-bytes-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    play(&dir);
    let got = files(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(p, len, h)| (p.to_string(), len, h))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(p, len, h)| format!("    ({p:?}, {len}, {h:#018x}),\n"))
            .collect();
        panic!("stored bytes differ from the pinned table; observed:\n{table}");
    }
}
