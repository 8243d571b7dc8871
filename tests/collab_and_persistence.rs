//! Cross-crate tests: awareness (presence with discussion) and full
//! station persistence through a serde format.

use mmu_wdoc::collab::{DiscussionBoard, PresenceBoard};
use mmu_wdoc::core::ids::{CourseId, UserId};
use mmu_wdoc::core::{StationBackup, WebDocDb};
use mmu_wdoc::workload::{generate_course, CourseSpec, MediaMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn presence_and_discussion_compose_into_awareness() {
    let mut presence = PresenceBoard::with_defaults();
    let mut board = DiscussionBoard::new(CourseId::new("CE101"), vec![UserId::new("shih")]);
    let students: Vec<UserId> = (0..5).map(|i| UserId::new(format!("s{i}"))).collect();
    for (i, s) in students.iter().enumerate() {
        presence.join(s, i as u32 + 1, 0);
    }
    // Posting is activity: it keeps the poster fresh.
    let now = 400_000_000; // past the 300 s idle window
    board
        .post(&students[0], None, "anyone awake?", now)
        .unwrap();
    presence.activity(&students[0], now);
    let (active, idle, _) = presence.headcount(now + 1);
    assert_eq!(active, 1, "only the poster is active");
    assert_eq!(idle, 0, "everyone else timed out entirely");
    // The unread badge is the other half of awareness.
    for s in &students[1..] {
        assert_eq!(board.unread_count(s), 1);
    }
}

#[test]
fn station_backup_survives_json_and_stays_live() {
    // Build a full course, round-trip the entire station through JSON,
    // and verify the restored station behaves identically.
    let db = WebDocDb::new();
    let mut rng = StdRng::seed_from_u64(77);
    let spec = CourseSpec::small("persist-me");
    let course = generate_course(&db, &mut rng, &spec, &MediaMix::courseware()).unwrap();
    let storage_before = db.storage().unwrap();

    let backup = db.backup().unwrap();
    let json = serde_json::to_string(&backup).unwrap();
    assert!(json.len() > 1000);
    let parsed: StationBackup = serde_json::from_str(&json).unwrap();
    let restored = WebDocDb::restore(&parsed).unwrap();

    let storage_after = restored.storage().unwrap();
    assert_eq!(storage_before, storage_after, "byte-identical accounting");
    for (script, url) in course.scripts.iter().zip(&course.urls) {
        assert_eq!(restored.script(script).unwrap().name, *script);
        assert_eq!(
            restored.html_files(url).unwrap().len(),
            db.html_files(url).unwrap().len()
        );
        assert_eq!(
            restored.implementation_resources(url).unwrap(),
            db.implementation_resources(url).unwrap()
        );
    }
    // The restored station still propagates integrity alerts.
    let alerts = restored
        .update_script(&course.scripts[0], |s| s.version += 1)
        .unwrap();
    assert!(!alerts.is_empty());
}
