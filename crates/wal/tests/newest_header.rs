//! A damaged header on the newest segment. A crash can leave that file
//! shorter than its header, and then nothing durable sits behind it;
//! but a complete header with frames after it is not a crash shape. Any
//! bit flipped in it must fail the open, and the open must leave the
//! file as it found it: deleting it would silently drop every
//! committed transaction in it.

use relstore::{ColumnType, TableSchema, Value};
use std::path::{Path, PathBuf};
use wal::{open_durable_any, WalError, WalOptions};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-newest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> WalOptions {
    WalOptions {
        segment_bytes: Some(256),
        sync_data: false,
        ..WalOptions::default()
    }
}

/// Every `.seg` file under `dir` with its bytes, by name.
fn segments(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_header_bit_flip_on_a_newest_segment_with_frames_fails_and_deletes_nothing() {
    const ROWS: i64 = 40;
    let dir = temp_dir("src");
    {
        let (db, _wal, _) = open_durable_any(&dir, opts()).unwrap();
        db.create_table(
            TableSchema::builder("t")
                .column("id", ColumnType::Int)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for id in 0..ROWS {
            db.with_txn(|t| t.insert("t", vec![Value::Int(id)]).map(|_| ()))
                .unwrap();
        }
    }
    let files = segments(&dir);
    let (newest, bytes) = files.last().unwrap();
    let name = newest.file_name().unwrap();
    assert!(files.len() > 2, "the log must rotate");
    assert!(bytes.len() > 16, "the newest segment must hold frames");

    let work = temp_dir("work");
    for byte in 0..16 {
        for bit in 0..8 {
            let _ = std::fs::remove_dir_all(&work);
            std::fs::create_dir_all(&work).unwrap();
            for (path, bytes) in &files {
                std::fs::write(work.join(path.file_name().unwrap()), bytes).unwrap();
            }
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            std::fs::write(work.join(name), &damaged).unwrap();
            let before = segments(&work);
            match open_durable_any(&work, opts()) {
                Err(WalError::Corrupt { .. } | WalError::UnsupportedFormat { .. }) => {}
                Err(e) => panic!("byte {byte} bit {bit}: expected corruption, got {e}"),
                Ok((db, _, _)) => panic!(
                    "byte {byte} bit {bit}: the open succeeded with {} of {ROWS} rows",
                    db.row_count("t").unwrap()
                ),
            }
            assert!(
                segments(&work) == before,
                "byte {byte} bit {bit}: the open changed the segment files"
            );
        }
    }

    // Undamaged, the same files recover every row.
    let (db, _wal, _) = open_durable_any(&dir, opts()).unwrap();
    assert_eq!(db.row_count("t").unwrap(), ROWS as usize);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}
