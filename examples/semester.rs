//! A whole semester, end to end: the capstone walkthrough tying every
//! subsystem together — authoring, QA, pre-broadcast, demand review
//! with migration, the virtual library, quizzes and final transcripts.
//!
//! ```sh
//! cargo run --release --example semester
//! cargo run --release --example semester -- --shards 4
//! ```
//!
//! With `--shards N` the same semester runs on an N-way
//! hash-partitioned station: every typed verb below routes through the
//! shard `Router`, and the walkthrough's output is identical — a
//! sharded station is the unsharded one, not an approximation.

use mmu_wdoc::core::ids::{CourseId, UserId};
use mmu_wdoc::core::quiz::{grade_class, Question, Quiz, QuizResponse};
use mmu_wdoc::core::testing::white_box_test;
use mmu_wdoc::core::tier::{Registrar, Role, Session};
use mmu_wdoc::core::WebDocDb;
use mmu_wdoc::dist::{
    AdaptiveController, BroadcastTree, DemandSim, DocSpec, LectureDoc, LectureSession, MigrationSim,
};
use mmu_wdoc::library::{assess, rank, Catalog, CatalogEntry, CheckoutLedger};
use mmu_wdoc::netsim::{LinkSpec, Network, SimTime};
use mmu_wdoc::obs::Registry;
use mmu_wdoc::relstore::EngineKind;
use mmu_wdoc::shard::ShardedBackend;
use mmu_wdoc::workload::{generate_course, generate_trace, CourseSpec, MediaMix, TraceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STUDENTS: usize = 24;
const WEEKS: usize = 6;

/// `--shards N` from the command line (default 1 = unsharded).
fn arg_shards() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--shards takes a positive integer"))
        .unwrap_or(1)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1999);
    let course_id = CourseId::new("MM201");
    let instructor = Session::new(UserId::new("shih"), Role::Instructor);
    let registrar = Registrar::new();

    // ------------------------------------------------- week 0: setup
    for s in 0..STUDENTS {
        registrar
            .register(&UserId::new(format!("student{s}")), &course_id, 0)
            .expect("registration");
    }
    let shards = arg_shards();
    let db = if shards > 1 {
        println!(
            "running on a {shards}-shard station (typed verbs routed through the shard Router)"
        );
        let backend = ShardedBackend::new(EngineKind::TwoPl, shards, Registry::new());
        WebDocDb::on_backend(Box::new(backend), true).expect("sharded station")
    } else {
        WebDocDb::new()
    };
    let spec = CourseSpec {
        name: "MM201".into(),
        instructor: "shih".into(),
        lectures: WEEKS,
        pages_per_lecture: 5,
        media_per_lecture: 3,
        programs_per_lecture: 1,
        media_scale: 128,
        tested_percent: 0,
        broken_link_percent: 15, // authoring is imperfect
    };
    let course =
        generate_course(&db, &mut rng, &spec, &MediaMix::courseware()).expect("course authored");
    println!("semester setup: {STUDENTS} students registered, {WEEKS} lectures authored");

    // QA pass before publication: white-box test every lecture; count
    // what the authors must fix.
    let qa = UserId::new("huang");
    let mut findings = 0;
    for (i, url) in course.urls.iter().enumerate() {
        let out = white_box_test(&db, url, &format!("qa-w{i}"), &qa, i as u64).expect("tester");
        findings += out.report.finding_count();
    }
    println!("QA pass: {findings} finding(s) filed as bug reports before the term starts");

    // Publish to the virtual library.
    let mut catalog = Catalog::new();
    for (i, script) in course.scripts.iter().enumerate() {
        catalog.publish(CatalogEntry {
            course: course_id.clone(),
            title: format!("MM201 week {i}"),
            instructor: instructor.user.clone(),
            keywords: vec!["multimedia".into(), format!("week{i}")],
            script: script.clone(),
            pages: db
                .html_files(&course.urls[i])
                .expect("pages")
                .into_iter()
                .map(|h| h.path)
                .collect(),
        });
    }

    // ---------------------------------------- weekly delivery pipeline
    let link = LinkSpec::new(2_000_000, SimTime::from_millis(15));
    let controller = AdaptiveController::default();
    let lecture_bytes: Vec<u64> = course
        .urls
        .iter()
        .map(|url| {
            let html: u64 = db
                .html_files(url)
                .expect("pages")
                .iter()
                .map(|h| h.content.len() as u64)
                .sum();
            let media: u64 = db
                .implementation_resources(url)
                .expect("media")
                .iter()
                .map(|m| m.size)
                .sum();
            html + media
        })
        .collect();

    // Pre-broadcast each week's lecture the night before.
    let mut broadcast_total = SimTime::ZERO;
    for &bytes in &lecture_bytes {
        let m = controller.best_m(STUDENTS as u64 + 1, bytes, link);
        let (mut net, ids) = Network::uniform(STUDENTS + 1, link);
        let tree = BroadcastTree::new(ids, m);
        let r = mmu_wdoc::dist::broadcast(&mut net, &tree, bytes);
        broadcast_total += r.completion;
    }
    println!(
        "pre-broadcast: {WEEKS} lectures shipped to {STUDENTS} stations in {broadcast_total} total"
    );

    // During the term: Zipf-skewed review traffic with watermark
    // duplication and a 12 MB per-station buffer.
    let docs: Vec<DocSpec> = lecture_bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| DocSpec {
            name: format!("week{i}"),
            view_bytes: 30_000,
            full_bytes: b.max(1),
        })
        .collect();
    let trace = generate_trace(
        &mut rng,
        &TraceSpec {
            accesses: 1_200,
            stations: STUDENTS as u64,
            docs: docs.len(),
            zipf_s: 1.0,
            mean_gap_us: 3_000_000,
        },
    );
    let (mut net, ids) = Network::uniform(STUDENTS + 1, link);
    let tree = BroadcastTree::new(ids, 3);
    let mut demand = DemandSim::new(tree, docs, 2);
    demand.set_station_quota(12_000_000);
    let dr = demand.run(&mut net, &trace);
    println!(
        "review traffic: {} accesses, {:.0}% served locally after duplication, {:.1} MB replicated",
        dr.accesses,
        dr.local_hits as f64 / dr.accesses as f64 * 100.0,
        dr.replica_bytes as f64 / 1e6
    );

    // Live lecture sessions migrate their buffers away afterwards.
    let (mut net2, ids2) = Network::uniform(STUDENTS + 1, link);
    let tree2 = BroadcastTree::new(ids2, 3);
    let lecture_docs: Vec<LectureDoc> = lecture_bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| LectureDoc {
            name: format!("week{i}"),
            bytes: b.max(1),
        })
        .collect();
    let mut migration = MigrationSim::new(tree2, lecture_docs, true);
    let sessions: Vec<LectureSession> = (0..WEEKS)
        .flat_map(|w| {
            (2..=STUDENTS as u64 + 1).map(move |pos| LectureSession {
                position: pos,
                doc: w,
                start: SimTime::from_secs((w as u64 * 7 * 86_400) + pos * 120),
                end: SimTime::from_secs((w as u64 * 7 * 86_400) + pos * 120 + 3_000),
            })
        })
        .collect();
    let mr = migration.run(&mut net2, &sessions);
    println!(
        "live sessions: {} attended; peak student disk {:.0} MB, steady state {:.0} MB",
        sessions.len(),
        mr.peak_bytes as f64 / 1e6,
        mr.steady_bytes as f64 / 1e6
    );

    // -------------------------------------- library study + assessment
    let mut ledger = CheckoutLedger::new();
    const HOUR: u64 = 3_600_000_000;
    for s in 0..STUDENTS {
        let student = UserId::new(format!("student{s}"));
        let diligence = rng.gen_range(1..=WEEKS);
        for w in 0..diligence {
            let script = &course.scripts[w];
            for p in 0..rng.gen_range(1..4) {
                let page = format!("page{p}.html");
                let t0 = (w as u64 * 7 * 24 + rng.gen_range(0..24)) * HOUR;
                ledger.check_out(&student, script, &page, t0);
                if rng.gen_bool(0.85) {
                    ledger.check_in(&student, script, &page, t0 + 2 * HOUR);
                }
            }
        }
    }
    let study = rank(assess(&ledger, WEEKS as u64 * 7 * 24 * HOUR));
    println!(
        "library: {} loans recorded; most diligent: {} (score {:.2})",
        ledger.all().len(),
        study[0].student,
        study[0].score()
    );

    // ------------------------------------------------ final assessment
    let final_quiz = Quiz {
        script: course.scripts[WEEKS - 1].clone(),
        questions: (0..5)
            .map(|q| Question {
                prompt: format!("Question {q} on distributed course databases?"),
                choices: vec!["A".into(), "B".into(), "C".into(), "D".into()],
                answer: q % 4,
                points: 20,
            })
            .collect(),
    };
    db.attach_quiz(&course.urls[WEEKS - 1], &final_quiz)
        .expect("quiz attached");
    let responses: Vec<QuizResponse> = (0..STUDENTS)
        .map(|s| QuizResponse {
            student: UserId::new(format!("student{s}")),
            answers: (0..5)
                .map(|q| {
                    // Library diligence correlates with quiz success.
                    let knows = rng.gen_bool(0.4 + 0.1 * (s % 6) as f64);
                    Some(if knows { q % 4 } else { (q + 1) % 4 })
                })
                .collect(),
        })
        .collect();
    let graded = grade_class(&final_quiz, &responses).expect("grading");
    for (student, percent) in &graded {
        registrar
            .record_grade(student, &course_id, *percent, WEEKS as u64 * 7 * 24 * HOUR)
            .expect("transcript");
    }
    let top = &graded[0];
    println!("final quiz: class best {} at {}%", top.0, top.1);

    let storage = db.storage().expect("accounting");
    println!(
        "end of term: document layer {:.0} KB, BLOB layer {:.1} MB ({} transcripts on file)",
        storage.document_bytes as f64 / 1e3,
        storage.blob_physical_bytes as f64 / 1e6,
        graded.len()
    );
}
