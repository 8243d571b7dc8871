//! Automated white-box / black-box testing of Web documents (§1).
//!
//! "How do we perform a white box or black box testing of a multimedia
//! presentation are research issues that we have solved partially."
//!
//! Both testers traverse an implementation's page graph and produce the
//! paper's artifacts — a [`TestRecord`] holding the replayable
//! traversal messages and a [`BugReport`] holding the four finding
//! lists (bad URLs, missing objects, inconsistency, redundant objects):
//!
//! * **black box** ([`black_box_test`]) sees only what a browsing
//!   student sees: it navigates from the start page breadth-first and
//!   reports dangling links and unreachable pages on the way;
//! * **white box** ([`white_box_test`]) additionally knows the
//!   implementation's inventory: it exercises *every* link (edge
//!   coverage), verifies each `src` reference against the stored HTML
//!   files, program files and BLOB resources, and flags stored objects
//!   nothing references.

use crate::complexity::PageGraph;
use crate::dbms::WebDocDb;
use crate::error::{CoreError, Result};
use crate::hierarchy::ObjectKind;
use crate::ids::{StartUrl, UserId};
use crate::tables::test_record::TraversalMsg;
use crate::tables::{BugReport, TestRecord, TestScope};
use std::collections::BTreeSet;

/// The artifacts of one automated test run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestOutcome {
    /// The replayable traversal.
    pub record: TestRecord,
    /// The findings.
    pub report: BugReport,
}

impl TestOutcome {
    /// True when the run found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

fn start_page(graph: &PageGraph) -> Result<String> {
    graph
        .pages()
        .iter()
        .find(|p| p.contains("index") || p.contains("page0"))
        .or_else(|| graph.pages().first())
        .cloned()
        .ok_or_else(|| CoreError::InvalidInput("implementation has no pages".into()))
}

/// Run a black-box test: navigate like a student, record what breaks.
/// The record and report are persisted into the database.
pub fn black_box_test(
    db: &WebDocDb,
    url: &StartUrl,
    name: &str,
    qa: &UserId,
    now: u64,
) -> Result<TestOutcome> {
    let imp = db.implementation(url)?;
    let html = db.html_files(url)?;
    if html.is_empty() {
        return Err(CoreError::not_found(ObjectKind::HtmlFile, url));
    }
    let graph = PageGraph::build(&html);
    let start = start_page(&graph)?;

    // Breadth-first navigation, recording one Navigate per page.
    let reach = graph.reachable_from(&start);
    let mut visited: Vec<(&usize, &String)> =
        reach.iter().map(|(page, depth)| (depth, page)).collect();
    visited.sort();
    let messages: Vec<TraversalMsg> = visited
        .iter()
        .map(|(_, page)| TraversalMsg::Navigate((*page).clone()))
        .collect();

    let bad_urls: Vec<String> = graph
        .dangling_links()
        .iter()
        .map(|(from, to)| format!("{from} -> {to}"))
        .collect();
    let redundant: Vec<String> = graph.unreachable_from(&start);
    let inconsistency = if reach.len() < graph.pages().len() {
        format!(
            "start page `{start}` reaches {} of {} pages",
            reach.len(),
            graph.pages().len()
        )
    } else {
        String::new()
    };

    let record = TestRecord {
        name: name.to_owned().into(),
        scope: TestScope::Local,
        messages,
        script: imp.script.clone(),
        url: Some(url.clone()),
        created: now,
    };
    let clean = bad_urls.is_empty() && redundant.is_empty() && inconsistency.is_empty();
    let report = BugReport {
        name: format!("{name}-report").into(),
        qa_engineer: qa.clone(),
        procedure: format!("black-box BFS traversal from `{start}`"),
        description: if clean {
            "no findings".to_owned()
        } else {
            format!(
                "{} dangling link(s), {} unreachable page(s)",
                bad_urls.len(),
                redundant.len()
            )
        },
        bad_urls,
        missing_objects: Vec::new(),
        inconsistency,
        redundant_objects: redundant,
        test_record: record.name.clone(),
        created: now,
    };
    db.add_test_record(&record)?;
    db.add_bug_report(&report)?;
    Ok(TestOutcome { record, report })
}

/// Run a white-box test: exercise every link, verify every `src`
/// reference against the stored inventory, and flag unreferenced
/// stored objects. Persists its artifacts.
pub fn white_box_test(
    db: &WebDocDb,
    url: &StartUrl,
    name: &str,
    qa: &UserId,
    now: u64,
) -> Result<TestOutcome> {
    let imp = db.implementation(url)?;
    let html = db.html_files(url)?;
    if html.is_empty() {
        return Err(CoreError::not_found(ObjectKind::HtmlFile, url));
    }
    let programs = db.program_files(url)?;
    let resources = db.implementation_resources(url)?;
    let graph = PageGraph::build(&html);
    let start = start_page(&graph)?;

    // Edge coverage: visit every page, follow each of its links.
    let mut messages = Vec::new();
    for page in graph.pages() {
        messages.push(TraversalMsg::Navigate(page.clone()));
        for (i, _) in graph.links_of(page).iter().enumerate() {
            messages.push(TraversalMsg::FollowLink(i as u32));
            messages.push(TraversalMsg::Back);
        }
    }

    // Inventory checks.
    let page_set: BTreeSet<&str> = graph.pages().iter().map(String::as_str).collect();
    let program_set: BTreeSet<&str> = programs.iter().map(|p| p.path.as_str()).collect();
    let resource_set: BTreeSet<String> = resources.iter().map(|m| m.id.to_string()).collect();

    let mut missing: Vec<String> = graph
        .all_srcs()
        .into_iter()
        .filter(|s| !page_set.contains(s) && !program_set.contains(s) && !resource_set.contains(*s))
        .map(str::to_owned)
        .collect();
    missing.sort();
    missing.dedup();

    // Redundant: stored objects no page references.
    let referenced: BTreeSet<&str> = graph.all_srcs().into_iter().collect();
    let mut redundant: Vec<String> = programs
        .iter()
        .filter(|p| !referenced.contains(p.path.as_str()))
        .map(|p| p.path.clone())
        .collect();
    redundant.extend(
        resources
            .iter()
            .filter(|m| !referenced.contains(m.id.to_string().as_str()))
            .map(|m| m.id.to_string()),
    );
    redundant.extend(graph.unreachable_from(&start));

    let bad_urls: Vec<String> = graph
        .dangling_links()
        .iter()
        .map(|(from, to)| format!("{from} -> {to}"))
        .collect();

    let record = TestRecord {
        name: name.to_owned().into(),
        scope: TestScope::Local,
        messages,
        script: imp.script.clone(),
        url: Some(url.clone()),
        created: now,
    };
    let finding_count = bad_urls.len() + missing.len() + redundant.len();
    let report = BugReport {
        name: format!("{name}-report").into(),
        qa_engineer: qa.clone(),
        procedure: "white-box edge coverage + inventory verification".to_owned(),
        description: if finding_count == 0 {
            "no findings".to_owned()
        } else {
            format!("{finding_count} finding(s)")
        },
        bad_urls,
        missing_objects: missing,
        inconsistency: String::new(),
        redundant_objects: redundant,
        test_record: record.name.clone(),
        created: now,
    };
    db.add_test_record(&record)?;
    db.add_bug_report(&report)?;
    Ok(TestOutcome { record, report })
}

/// Run a *global* test (§3: "Testing scope: local or global"): verify
/// every cross-document link of every implementation against the
/// database's global URL space (starting URLs and their pages). Files
/// one Global-scope [`TestRecord`] + [`BugReport`] per implementation
/// that carries cross-document links; returns the outcomes.
pub fn global_test(db: &WebDocDb, qa: &UserId, now: u64) -> Result<Vec<TestOutcome>> {
    let implementations = db.all_implementations()?;
    // The global URL space: every starting URL, plus each of its pages.
    let mut known: BTreeSet<String> = BTreeSet::new();
    for imp in &implementations {
        known.insert(imp.url.to_string());
        for h in db.html_files(&imp.url)? {
            known.insert(format!("{}{}", imp.url, h.path));
        }
    }

    let mut outcomes = Vec::new();
    for (i, imp) in implementations.iter().enumerate() {
        let html = db.html_files(&imp.url)?;
        let graph = PageGraph::build(&html);
        if graph.external_links().is_empty() {
            continue;
        }
        let mut messages = Vec::new();
        let mut bad_urls = Vec::new();
        for (from, target) in graph.external_links() {
            messages.push(TraversalMsg::Navigate(from.clone()));
            messages.push(TraversalMsg::Activate(target.clone()));
            if !known.contains(target) {
                bad_urls.push(format!("{from} -> {target}"));
            }
        }
        let record = TestRecord {
            name: format!("global-{now}-{i}").into(),
            scope: TestScope::Global,
            messages,
            script: imp.script.clone(),
            url: Some(imp.url.clone()),
            created: now,
        };
        let report = BugReport {
            name: format!("global-{now}-{i}-report").into(),
            qa_engineer: qa.clone(),
            procedure: "global cross-document link verification".to_owned(),
            description: if bad_urls.is_empty() {
                "all cross-document links resolve".to_owned()
            } else {
                format!("{} dangling cross-document link(s)", bad_urls.len())
            },
            bad_urls,
            missing_objects: Vec::new(),
            inconsistency: String::new(),
            redundant_objects: Vec::new(),
            test_record: record.name.clone(),
            created: now,
        };
        db.add_test_record(&record)?;
        db.add_bug_report(&report)?;
        outcomes.push(TestOutcome { record, report });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbms::DatabaseInfo;
    use crate::ids::{DbName, ScriptName};
    use crate::tables::{HtmlFile, Implementation, Script};
    use blobstore::MediaKind;
    use bytes::Bytes;

    fn setup(pages: &[(&str, String)]) -> (WebDocDb, StartUrl) {
        let db = WebDocDb::new();
        db.create_database(&DatabaseInfo {
            name: DbName::new("d"),
            keywords: vec![],
            author: UserId::new("shih"),
            version: 1,
            created: 0,
        })
        .unwrap();
        db.add_script(&Script {
            name: ScriptName::new("s"),
            db: DbName::new("d"),
            keywords: vec![],
            author: UserId::new("shih"),
            version: 1,
            created: 0,
            description: String::new(),
            expected_completion: None,
            percent_complete: 0,
        })
        .unwrap();
        let url = StartUrl::new("http://mmu/s/");
        let html: Vec<HtmlFile> = pages
            .iter()
            .map(|(path, body)| HtmlFile {
                url: url.clone(),
                path: (*path).into(),
                content: Bytes::from(body.clone()),
            })
            .collect();
        db.add_implementation(
            &Implementation {
                url: url.clone(),
                script: ScriptName::new("s"),
                author: UserId::new("shih"),
                created: 0,
            },
            &html,
            &[],
        )
        .unwrap();
        (db, url)
    }

    #[test]
    fn clean_document_passes_black_box() {
        let (db, url) = setup(&[
            ("index.html", r#"<a href="a.html">x</a>"#.into()),
            ("a.html", r#"<a href="index.html">home</a>"#.into()),
        ]);
        let out = black_box_test(&db, &url, "tr1", &UserId::new("huang"), 5).unwrap();
        assert!(out.is_clean(), "findings: {:?}", out.report);
        assert_eq!(out.record.messages.len(), 2); // two Navigates
                                                  // Persisted.
        assert_eq!(db.test_records_of(&ScriptName::new("s")).unwrap().len(), 1);
        assert_eq!(db.bug_reports_of(&out.record.name).unwrap().len(), 1);
    }

    #[test]
    fn black_box_finds_dangling_and_orphans() {
        let (db, url) = setup(&[
            ("index.html", r#"<a href="gone.html">?</a>"#.into()),
            ("orphan.html", String::new()),
        ]);
        let out = black_box_test(&db, &url, "tr2", &UserId::new("huang"), 5).unwrap();
        assert!(!out.is_clean());
        assert_eq!(out.report.bad_urls, vec!["index.html -> gone.html"]);
        assert_eq!(out.report.redundant_objects, vec!["orphan.html"]);
        assert!(out.report.inconsistency.contains("reaches 1 of 2"));
    }

    #[test]
    fn white_box_checks_inventory() {
        let (db, url) = setup(&[(
            "index.html",
            r#"<img src="ghost.gif"> <a href="index.html">self</a>"#.into(),
        )]);
        // A stored but unreferenced resource.
        let unused = db
            .attach_implementation_resource(&url, MediaKind::StillImage, Bytes::from_static(b"pix"))
            .unwrap();
        let out = white_box_test(&db, &url, "tr3", &UserId::new("huang"), 6).unwrap();
        assert_eq!(out.report.missing_objects, vec!["ghost.gif"]);
        assert!(out
            .report
            .redundant_objects
            .contains(&unused.id.to_string()));
    }

    #[test]
    fn white_box_accepts_referenced_resources() {
        let db = WebDocDb::new();
        db.create_database(&DatabaseInfo {
            name: DbName::new("d"),
            keywords: vec![],
            author: UserId::new("shih"),
            version: 1,
            created: 0,
        })
        .unwrap();
        db.add_script(&Script {
            name: ScriptName::new("s"),
            db: DbName::new("d"),
            keywords: vec![],
            author: UserId::new("shih"),
            version: 1,
            created: 0,
            description: String::new(),
            expected_completion: None,
            percent_complete: 0,
        })
        .unwrap();
        let url = StartUrl::new("http://mmu/s/");
        // Store the clip first so its id can appear in the HTML.
        let clip = Bytes::from_static(b"narration");
        let id = blobstore::BlobId::of(&clip);
        db.add_implementation(
            &Implementation {
                url: url.clone(),
                script: ScriptName::new("s"),
                author: UserId::new("shih"),
                created: 0,
            },
            &[HtmlFile {
                url: url.clone(),
                path: "index.html".into(),
                content: Bytes::from(format!(r#"<audio src="{id}"></audio>"#)),
            }],
            &[],
        )
        .unwrap();
        db.attach_implementation_resource(&url, MediaKind::Audio, clip)
            .unwrap();
        let out = white_box_test(&db, &url, "tr4", &UserId::new("huang"), 7).unwrap();
        assert!(out.report.missing_objects.is_empty());
        assert!(!out.report.redundant_objects.contains(&id.to_string()));
    }

    #[test]
    fn white_box_covers_every_edge() {
        let (db, url) = setup(&[
            (
                "index.html",
                r#"<a href="a.html">1</a><a href="b.html">2</a>"#.into(),
            ),
            ("a.html", String::new()),
            ("b.html", String::new()),
        ]);
        let out = white_box_test(&db, &url, "tr5", &UserId::new("huang"), 8).unwrap();
        let follows = out
            .record
            .messages
            .iter()
            .filter(|m| matches!(m, TraversalMsg::FollowLink(_)))
            .count();
        assert_eq!(follows, 2, "one FollowLink per link");
    }

    #[test]
    fn global_test_checks_cross_document_links() {
        let db = WebDocDb::new();
        db.create_database(&DatabaseInfo {
            name: DbName::new("d"),
            keywords: vec![],
            author: UserId::new("shih"),
            version: 1,
            created: 0,
        })
        .unwrap();
        // Two lectures; lecture 1 links to lecture 2's start URL and to
        // a course that does not exist.
        for (script, url, body) in [
            (
                "l1",
                "http://mmu/c/l1/",
                r#"<a href="http://mmu/c/l2/">next</a> <a href="http://mmu/c/l9/">dead</a>"#,
            ),
            ("l2", "http://mmu/c/l2/", "fin"),
        ] {
            db.add_script(&Script {
                name: ScriptName::new(script),
                db: DbName::new("d"),
                keywords: vec![],
                author: UserId::new("shih"),
                version: 1,
                created: 0,
                description: String::new(),
                expected_completion: None,
                percent_complete: 0,
            })
            .unwrap();
            db.add_implementation(
                &Implementation {
                    url: StartUrl::new(url),
                    script: ScriptName::new(script),
                    author: UserId::new("shih"),
                    created: 0,
                },
                &[HtmlFile {
                    url: StartUrl::new(url),
                    path: "index.html".into(),
                    content: Bytes::from(body.to_owned()),
                }],
                &[],
            )
            .unwrap();
        }
        let outcomes = global_test(&db, &UserId::new("huang"), 9).unwrap();
        // Only lecture 1 carries cross-document links.
        assert_eq!(outcomes.len(), 1);
        let out = &outcomes[0];
        assert_eq!(out.record.scope, TestScope::Global);
        assert_eq!(out.report.bad_urls, vec!["index.html -> http://mmu/c/l9/"]);
        // The valid cross-link passed.
        assert!(out
            .record
            .messages
            .iter()
            .any(|m| matches!(m, TraversalMsg::Activate(t) if t == "http://mmu/c/l2/")));
        // Persisted under lecture 1's script.
        assert_eq!(db.test_records_of(&ScriptName::new("l1")).unwrap().len(), 1);
    }

    #[test]
    fn missing_implementation_errors() {
        let db = WebDocDb::new();
        let err = black_box_test(
            &db,
            &StartUrl::new("http://nope/"),
            "t",
            &UserId::new("q"),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotFound { .. }));
    }
}
