//! Op tapes: what each client will ask the station, generated from the
//! seed before the clock starts. The station receives only the typed
//! verb calls [`apply`] makes.
//!
//! A tape is fixed work: its length is a per-workload constant
//! (`--seconds` buys repetitions of it), so table sizes, log bytes and
//! (with one client) every count repeat exactly. Clients write only names they own
//! (`t-<client>-<i>`), and the generator keeps a model of what each
//! client has created, so no verb can fail whatever the interleaving —
//! and the model gives the expected row counts the output checks
//! compare the station against.

use blobstore::MediaKind;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use wdoc_core::ids::{
    AnnotationName, BugReportName, DbName, ScriptName, StartUrl, TestRecordName, UserId,
};
use wdoc_core::sci::{AnnotationOverlay, Stroke};
use wdoc_core::tables::implementation::ProgramLang;
use wdoc_core::tables::test_record::TraversalMsg;
use wdoc_core::tables::{
    Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord, TestScope,
};
use wdoc_core::{CoreError, DatabaseInfo, WebDocDb};
use wdoc_workload::Zipf;

pub const DB_NAME: &str = "mmu-courses";
pub const AUTHORS: u32 = 64;
pub const ZIPF_S: f64 = 0.8;
/// Share of each tape that warms the station and is not timed.
pub const WARMUP_SHARE: f64 = 0.05;
/// Share of attachments that re-attach a payload the client stored
/// earlier (to another script): what the BLOB layer can share.
const PAYLOAD_REPEAT_PCT: u32 = 30;
const PAYLOAD_MIN: u64 = 4 << 10;
const PAYLOAD_MAX: u64 = 64 << 10;
/// Share of a client's new test records that go under a script family
/// the client itself added, so `remove_script` has something to
/// cascade over.
const OWN_FAMILY_TEST_PCT: u32 = 15;

/// A script family: seeded before the run (`s00017`) or added by the
/// tape's client (`t-<client>-<id>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fam {
    Seeded(u32),
    Own(u32),
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Script(Fam),
    ImplementationsOf(Fam),
    TestRecordsOf(Fam),
    HtmlFiles(Fam),
    ScriptsByAuthor(u32),
    UpdateScript {
        fam: Fam,
        pct: i64,
    },
    AddTestRecord {
        fam: Fam,
        id: u32,
    },
    AddBugReport {
        test_record: u32,
        id: u32,
    },
    AddAnnotation {
        fam: Fam,
        id: u32,
    },
    AddScript {
        id: u32,
    },
    AddImplementation {
        id: u32,
    },
    RemoveScript {
        id: u32,
    },
    Attach {
        fam: Fam,
        payload: u32,
    },
    Detach {
        fam: Fam,
        payload: u32,
    },
    /// `checkpoint()` inline; not a verb, timed on its own.
    Checkpoint,
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::Script(_)
                | Op::ImplementationsOf(_)
                | Op::TestRecordsOf(_)
                | Op::HtmlFiles(_)
                | Op::ScriptsByAuthor(_)
        )
    }

    /// The verb's name as the trace and the per-layer table print it.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Script(_) => "script",
            Op::ImplementationsOf(_) => "implementations_of",
            Op::TestRecordsOf(_) => "test_records_of",
            Op::HtmlFiles(_) => "html_files",
            Op::ScriptsByAuthor(_) => "scripts_by_author",
            Op::UpdateScript { .. } => "update_script",
            Op::AddTestRecord { .. } => "add_test_record",
            Op::AddBugReport { .. } => "add_bug_report",
            Op::AddAnnotation { .. } => "add_annotation",
            Op::AddScript { .. } => "add_script",
            Op::AddImplementation { .. } => "add_implementation",
            Op::RemoveScript { .. } => "remove_script",
            Op::Attach { .. } => "attach_script_resource",
            Op::Detach { .. } => "detach_script_resource",
            Op::Checkpoint => "checkpoint",
        }
    }

    /// Name of the verb's root span. Everything between the typed call
    /// and the first `DocBackend` call is core's; the checkpoint's
    /// work is the log's.
    pub fn span_name(&self) -> &'static str {
        match self {
            Op::Script(_) => "core.verb.script",
            Op::ImplementationsOf(_) => "core.verb.implementations_of",
            Op::TestRecordsOf(_) => "core.verb.test_records_of",
            Op::HtmlFiles(_) => "core.verb.html_files",
            Op::ScriptsByAuthor(_) => "core.verb.scripts_by_author",
            Op::UpdateScript { .. } => "core.verb.update_script",
            Op::AddTestRecord { .. } => "core.verb.add_test_record",
            Op::AddBugReport { .. } => "core.verb.add_bug_report",
            Op::AddAnnotation { .. } => "core.verb.add_annotation",
            Op::AddScript { .. } => "core.verb.add_script",
            Op::AddImplementation { .. } => "core.verb.add_implementation",
            Op::RemoveScript { .. } => "core.verb.remove_script",
            Op::Attach { .. } => "core.verb.attach_script_resource",
            Op::Detach { .. } => "core.verb.detach_script_resource",
            Op::Checkpoint => "wal.checkpoint",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Script,
    ImplementationsOf,
    TestRecordsOf,
    HtmlFiles,
    ScriptsByAuthor,
    UpdateScript,
    AddTestRecord,
    AddBugReport,
    AddAnnotation,
    /// `add_script` then `add_implementation`: two verbs.
    AddFamily,
    RemoveScript,
    Attach,
    Detach,
}

/// What a station workload asks for: percentages sum to 100.
pub struct Plan {
    pub families: u32,
    pub mix: &'static [(Kind, u32)],
    /// Client 0 checkpoints at its tape midpoint.
    pub checkpoint: bool,
}

/// `authoring_mem` and `authoring_sharded` share this plan, so their
/// tapes are equal byte for byte. `AddFamily` weighs 1 and emits two
/// verbs: 2 % of verbs.
pub const AUTHORING: Plan = Plan {
    families: 4096,
    mix: &[
        (Kind::Script, 30),
        (Kind::ImplementationsOf, 15),
        (Kind::TestRecordsOf, 10),
        (Kind::ScriptsByAuthor, 5),
        (Kind::UpdateScript, 20),
        (Kind::AddTestRecord, 13),
        (Kind::AddBugReport, 5),
        (Kind::AddFamily, 1),
        (Kind::RemoveScript, 1),
    ],
    checkpoint: false,
};

pub const DURABLE: Plan = Plan {
    families: 1024,
    mix: &[
        (Kind::Script, 20),
        (Kind::ImplementationsOf, 10),
        (Kind::UpdateScript, 30),
        (Kind::AddTestRecord, 25),
        (Kind::Attach, 10),
        (Kind::Detach, 3),
        (Kind::AddBugReport, 2),
    ],
    checkpoint: true,
};

pub const BROWSE: Plan = Plan {
    families: 4096,
    mix: &[
        (Kind::Script, 45),
        (Kind::ImplementationsOf, 20),
        (Kind::HtmlFiles, 15),
        (Kind::TestRecordsOf, 10),
        (Kind::ScriptsByAuthor, 5),
        (Kind::UpdateScript, 3),
        (Kind::AddAnnotation, 2),
    ],
    checkpoint: false,
};

/// Net rows a tape adds to each station table, and what it leaves
/// attached: the expectation the output checks hold the station to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    pub rows: BTreeMap<&'static str, i64>,
    /// Attachments live at the end of the tape, with the index of the
    /// op that made them.
    pub attached: Vec<(Fam, u32, usize)>,
}

pub struct Tape {
    pub client: usize,
    pub families: u32,
    pub ops: Vec<Op>,
    pub payloads: Vec<(MediaKind, Bytes)>,
    pub model: Model,
}

impl Tape {
    /// Index of the first timed op.
    pub fn warmup_len(&self) -> usize {
        (self.ops.len() as f64 * WARMUP_SHARE) as usize
    }
}

struct Generator {
    rng: StdRng,
    zipf: Zipf,
    next_id: u32,
    own_families: Vec<u32>,
    /// Live test records of this client: (id, family).
    test_records: Vec<(u32, Fam)>,
    bugs_on: BTreeMap<u32, i64>,
    payloads: Vec<(MediaKind, Bytes)>,
    attached: Vec<(Fam, u32, usize)>,
    attached_set: BTreeSet<(Fam, u32)>,
    rows: BTreeMap<&'static str, i64>,
    ops: Vec<Op>,
}

impl Generator {
    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn seeded(&mut self) -> Fam {
        Fam::Seeded(self.zipf.sample(&mut self.rng) as u32)
    }

    fn bump(&mut self, table: &'static str, by: i64) {
        *self.rows.entry(table).or_insert(0) += by;
    }

    fn add_family(&mut self) {
        let id = self.fresh_id();
        self.ops.push(Op::AddScript { id });
        self.ops.push(Op::AddImplementation { id });
        self.own_families.push(id);
        self.bump(Script::TABLE, 1);
        self.bump(Implementation::TABLE, 1);
        self.bump(HtmlFile::TABLE, 1);
        if has_program(id) {
            self.bump(ProgramFile::TABLE, 1);
        }
    }

    fn add_test_record(&mut self) {
        let own =
            !self.own_families.is_empty() && self.rng.gen_range(0..100u32) < OWN_FAMILY_TEST_PCT;
        let fam = if own {
            let i = self.rng.gen_range(0..self.own_families.len());
            Fam::Own(self.own_families[i])
        } else {
            self.seeded()
        };
        let id = self.fresh_id();
        self.ops.push(Op::AddTestRecord { fam, id });
        self.test_records.push((id, fam));
        self.bump(TestRecord::TABLE, 1);
    }

    fn attach(&mut self, client: usize) {
        let repeat =
            !self.payloads.is_empty() && self.rng.gen_range(0..100u32) < PAYLOAD_REPEAT_PCT;
        let payload = if repeat {
            self.rng.gen_range(0..self.payloads.len()) as u32
        } else {
            let kind = MediaKind::ALL[self.rng.gen_range(0..MediaKind::ALL.len())];
            let size = self.rng.gen_range(PAYLOAD_MIN..=PAYLOAD_MAX);
            // Distinct seeds per client and payload: clients never
            // share content, so a release by one cannot evict the
            // other's bytes.
            let seed = ((client as u64) << 32) | self.payloads.len() as u64;
            self.payloads
                .push((kind, wdoc_workload::payload(seed, size)));
            self.payloads.len() as u32 - 1
        };
        // (owner, blob) is the junction table's key: never attach the
        // same payload to the same script twice.
        let mut fam = self.seeded();
        while self.attached_set.contains(&(fam, payload)) {
            fam = self.seeded();
        }
        self.attached_set.insert((fam, payload));
        self.attached.push((fam, payload, self.ops.len()));
        self.ops.push(Op::Attach { fam, payload });
        self.bump(Script::RESOURCES, 1);
    }

    fn step(&mut self, kind: Kind, client: usize) {
        match kind {
            Kind::Script => {
                let f = self.seeded();
                self.ops.push(Op::Script(f));
            }
            Kind::ImplementationsOf => {
                let f = self.seeded();
                self.ops.push(Op::ImplementationsOf(f));
            }
            Kind::TestRecordsOf => {
                let f = self.seeded();
                self.ops.push(Op::TestRecordsOf(f));
            }
            Kind::HtmlFiles => {
                let f = self.seeded();
                self.ops.push(Op::HtmlFiles(f));
            }
            Kind::ScriptsByAuthor => {
                let a = self.rng.gen_range(0..AUTHORS);
                self.ops.push(Op::ScriptsByAuthor(a));
            }
            Kind::UpdateScript => {
                let fam = self.seeded();
                let pct = self.rng.gen_range(0..=100i64);
                self.ops.push(Op::UpdateScript { fam, pct });
            }
            Kind::AddTestRecord => self.add_test_record(),
            Kind::AddBugReport => {
                if self.test_records.is_empty() {
                    return self.add_test_record();
                }
                let i = self.rng.gen_range(0..self.test_records.len());
                let test_record = self.test_records[i].0;
                let id = self.fresh_id();
                self.ops.push(Op::AddBugReport { test_record, id });
                *self.bugs_on.entry(test_record).or_insert(0) += 1;
                self.bump(BugReport::TABLE, 1);
            }
            Kind::AddAnnotation => {
                let fam = self.seeded();
                let id = self.fresh_id();
                self.ops.push(Op::AddAnnotation { fam, id });
                self.bump(Annotation::TABLE, 1);
            }
            Kind::AddFamily => self.add_family(),
            Kind::RemoveScript => {
                if self.own_families.is_empty() {
                    return self.add_family();
                }
                // Oldest first, so a family has had time to collect
                // test records and bug reports for the cascade.
                let id = self.own_families.remove(0);
                self.ops.push(Op::RemoveScript { id });
                self.bump(Script::TABLE, -1);
                self.bump(Implementation::TABLE, -1);
                self.bump(HtmlFile::TABLE, -1);
                if has_program(id) {
                    self.bump(ProgramFile::TABLE, -1);
                }
                let gone: Vec<u32> = self
                    .test_records
                    .iter()
                    .filter(|(_, f)| *f == Fam::Own(id))
                    .map(|(t, _)| *t)
                    .collect();
                self.test_records.retain(|(_, f)| *f != Fam::Own(id));
                self.bump(TestRecord::TABLE, -(gone.len() as i64));
                for t in gone {
                    let bugs = self.bugs_on.remove(&t).unwrap_or(0);
                    self.bump(BugReport::TABLE, -bugs);
                }
            }
            Kind::Attach => self.attach(client),
            Kind::Detach => {
                if self.attached.is_empty() {
                    return self.attach(client);
                }
                let i = self.rng.gen_range(0..self.attached.len());
                let (fam, payload, _) = self.attached.swap_remove(i);
                self.attached_set.remove(&(fam, payload));
                self.ops.push(Op::Detach { fam, payload });
                self.bump(Script::RESOURCES, -1);
            }
        }
    }
}

/// Generate client `client`'s tape of (at least) `len` verbs.
pub fn generate(plan: &Plan, seed: u64, client: usize, len: usize) -> Tape {
    debug_assert_eq!(plan.mix.iter().map(|(_, w)| w).sum::<u32>(), 100);
    let mut g = Generator {
        rng: StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        ),
        zipf: Zipf::new(plan.families as usize, ZIPF_S),
        next_id: 0,
        own_families: Vec::new(),
        test_records: Vec::new(),
        bugs_on: BTreeMap::new(),
        payloads: Vec::new(),
        attached: Vec::new(),
        attached_set: BTreeSet::new(),
        rows: BTreeMap::new(),
        ops: Vec::with_capacity(len + 2),
    };
    let mut checkpointed = !(plan.checkpoint && client == 0);
    while g.ops.len() < len {
        if !checkpointed && g.ops.len() >= len / 2 {
            g.ops.push(Op::Checkpoint);
            checkpointed = true;
        }
        let mut roll = g.rng.gen_range(0..100u32);
        let kind = plan
            .mix
            .iter()
            .find(|(_, w)| {
                if roll < *w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .expect("weights sum to 100")
            .0;
        g.step(kind, client);
    }
    Tape {
        client,
        families: plan.families,
        ops: g.ops,
        payloads: g.payloads,
        model: Model {
            rows: g.rows,
            attached: g.attached,
        },
    }
}

// ------------------------------------------------------------- objects

fn has_program(i: u32) -> bool {
    i.is_multiple_of(3)
}

pub fn script_name(client: usize, fam: Fam) -> String {
    match fam {
        Fam::Seeded(f) => format!("s{f:05}"),
        Fam::Own(id) => format!("t-{client}-{id}"),
    }
}

fn url_of(script: &str) -> String {
    format!("http://mmu/{script}/start.html")
}

pub fn author(i: u32) -> UserId {
    UserId::new(format!("author{:02}", i % AUTHORS))
}

pub fn keywords(i: u32) -> Vec<String> {
    vec![
        "lecture".into(),
        format!("week{}", i % 13),
        format!("topic{}", i % 97),
    ]
}

fn script(name: &str, i: u32) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new(DB_NAME),
        keywords: keywords(i),
        author: author(i),
        version: 1,
        created: 1_000 + u64::from(i),
        description: format!("lecture script {name}: outline, media list, quiz plan"),
        expected_completion: i.is_multiple_of(2).then_some(9_000 + u64::from(i)),
        percent_complete: i64::from(i % 101),
    }
}

fn implementation(name: &str, i: u32) -> (Implementation, Vec<HtmlFile>, Vec<ProgramFile>) {
    let url = StartUrl::new(url_of(name));
    let imp = Implementation {
        url: url.clone(),
        script: ScriptName::new(name),
        author: author(i + 7),
        created: 2_000 + u64::from(i),
    };
    let html = vec![HtmlFile {
        url: url.clone(),
        path: "start.html".into(),
        content: format!(
            "<html><head><title>{name}</title></head><body><h1>Lecture {i}</h1>\
             <p>Slides, notes and the week's reading.</p><a href=\"quiz.class\">quiz</a></body></html>"
        )
        .into_bytes()
        .into(),
    }];
    let programs = if has_program(i) {
        vec![ProgramFile {
            url,
            path: "quiz.class".into(),
            lang: ProgramLang::JavaApplet,
            content: Bytes::from(vec![0xCA; 64]),
        }]
    } else {
        Vec::new()
    };
    (imp, html, programs)
}

fn own_name(client: usize, id: u32) -> String {
    format!("t-{client}-{id}")
}

fn implementation_bytes(imp: &Implementation, html: &[HtmlFile], programs: &[ProgramFile]) -> u64 {
    (imp.url.as_str().len() * (1 + html.len() + programs.len())
        + imp.script.as_str().len()
        + html.iter().map(|h| h.content.len()).sum::<usize>()
        + programs.iter().map(|p| p.content.len()).sum::<usize>()) as u64
}

fn script_bytes(s: &Script) -> u64 {
    (s.name.as_str().len()
        + s.db.as_str().len()
        + s.keywords.iter().map(|k| k.len() + 1).sum::<usize>()
        + s.author.as_str().len()
        + s.description.len()
        + 4 * 8) as u64
}

/// Build a fresh station's content: the database row and `families`
/// script families (script + implementation + HTML file, a program
/// file on every third). Returns the user bytes it wrote.
pub fn seed_station(db: &WebDocDb, families: u32) -> Result<u64, CoreError> {
    db.create_database(&DatabaseInfo {
        name: DbName::new(DB_NAME),
        keywords: vec!["courseware".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 10,
    })?;
    let mut bytes = 0;
    for f in 0..families {
        let name = script_name(0, Fam::Seeded(f));
        let s = script(&name, f);
        db.add_script(&s)?;
        let (imp, html, programs) = implementation(&name, f);
        db.add_implementation(&imp, &html, &programs)?;
        bytes += script_bytes(&s) + implementation_bytes(&imp, &html, &programs);
    }
    Ok(bytes)
}

/// Rows [`seed_station`] leaves in each table.
pub fn seeded_rows(families: u32) -> BTreeMap<&'static str, i64> {
    let f = i64::from(families);
    BTreeMap::from([
        ("wdoc_database", 1),
        (Script::TABLE, f),
        (Implementation::TABLE, f),
        (HtmlFile::TABLE, f),
        (ProgramFile::TABLE, i64::from(families.div_ceil(3))),
        (TestRecord::TABLE, 0),
        (BugReport::TABLE, 0),
        (Annotation::TABLE, 0),
        (Script::RESOURCES, 0),
        (Implementation::RESOURCES, 0),
    ])
}

fn wrong(what: &str) -> CoreError {
    CoreError::InvalidInput(format!("wrong result: {what}"))
}

/// Issue op `i` of `tape` as one typed verb. Returns the user bytes
/// (row payload + BLOB) the station acknowledged; a wrong read result
/// is an error like a refused verb.
pub fn apply(db: &WebDocDb, tape: &Tape, i: usize) -> Result<u64, CoreError> {
    let c = tape.client;
    match &tape.ops[i] {
        Op::Script(f) => {
            let name = ScriptName::new(script_name(c, *f));
            let s = db.script(&name)?;
            if s.name != name {
                return Err(wrong("script"));
            }
            Ok(0)
        }
        Op::ImplementationsOf(f) => {
            let imps = db.implementations_of(&ScriptName::new(script_name(c, *f)))?;
            if imps.len() != 1 {
                return Err(wrong("implementations_of"));
            }
            Ok(0)
        }
        Op::TestRecordsOf(f) => {
            let name = ScriptName::new(script_name(c, *f));
            let trs = db.test_records_of(&name)?;
            if trs.iter().any(|t| t.script != name) {
                return Err(wrong("test_records_of"));
            }
            Ok(0)
        }
        Op::HtmlFiles(f) => {
            let files = db.html_files(&StartUrl::new(url_of(&script_name(c, *f))))?;
            if files.len() != 1 {
                return Err(wrong("html_files"));
            }
            Ok(0)
        }
        Op::ScriptsByAuthor(a) => {
            let scripts = db.scripts_by_author(&author(*a))?;
            // Seeded scripts are never removed.
            if scripts.len() < (tape.families / AUTHORS) as usize {
                return Err(wrong("scripts_by_author"));
            }
            Ok(0)
        }
        Op::UpdateScript { fam, pct } => {
            let bytes = Cell::new(0);
            db.update_script(&ScriptName::new(script_name(c, *fam)), |s| {
                s.percent_complete = *pct;
                bytes.set(script_bytes(s));
            })?;
            Ok(bytes.get())
        }
        Op::AddTestRecord { fam, id } => {
            let script = script_name(c, *fam);
            let tr = TestRecord {
                name: TestRecordName::new(own_name(c, *id)),
                scope: if id % 2 == 0 {
                    TestScope::Local
                } else {
                    TestScope::Global
                },
                messages: vec![
                    TraversalMsg::Navigate("start.html".into()),
                    TraversalMsg::FollowLink(1),
                    TraversalMsg::Back,
                ],
                url: Some(StartUrl::new(url_of(&script))),
                script: ScriptName::new(script),
                created: 3_000 + u64::from(*id),
            };
            db.add_test_record(&tr)?;
            let url_len = tr.url.as_ref().map_or(0, |u| u.as_str().len());
            Ok((tr.name.as_str().len() + tr.script.as_str().len() + url_len + 24 + 16) as u64)
        }
        Op::AddBugReport { test_record, id } => {
            let br = BugReport {
                name: BugReportName::new(own_name(c, *id)),
                qa_engineer: UserId::new(format!("qa{c}")),
                procedure: "replay the traversal, compare every page against the script".into(),
                description: "quiz link broken on the start page".into(),
                bad_urls: vec!["http://mmu/missing/quiz.class".into()],
                missing_objects: vec!["figure3.gif".into()],
                inconsistency: "slide order differs from the outline".into(),
                redundant_objects: Vec::new(),
                test_record: TestRecordName::new(own_name(c, *test_record)),
                created: 4_000 + u64::from(*id),
            };
            db.add_bug_report(&br)?;
            Ok((br.name.as_str().len()
                + br.qa_engineer.as_str().len()
                + br.procedure.len()
                + br.description.len()
                + br.bad_urls[0].len()
                + br.missing_objects[0].len()
                + br.inconsistency.len()
                + br.test_record.as_str().len()
                + 8) as u64)
        }
        Op::AddAnnotation { fam, id } => {
            let script = script_name(c, *fam);
            let who = author(*id);
            let ann = Annotation {
                name: AnnotationName::new(own_name(c, *id)),
                author: who.clone(),
                version: 1,
                created: 5_000 + u64::from(*id),
                url: Some(StartUrl::new(url_of(&script))),
                script: ScriptName::new(script),
                overlay: AnnotationOverlay {
                    author: who,
                    page: "start.html".into(),
                    strokes: vec![
                        Stroke::Text {
                            at: (10.0, 10.0),
                            content: "remember this for the midterm".into(),
                        },
                        Stroke::Rect {
                            origin: (8.0, 8.0),
                            extent: (120.0, 24.0),
                        },
                    ],
                },
            };
            db.add_annotation(&ann)?;
            Ok(ann.name.as_str().len() as u64
                + ann.script.as_str().len() as u64
                + ann.overlay.byte_size()
                + 16)
        }
        Op::AddScript { id } => {
            let s = script(&own_name(c, *id), *id);
            db.add_script(&s)?;
            Ok(script_bytes(&s))
        }
        Op::AddImplementation { id } => {
            let (imp, html, programs) = implementation(&own_name(c, *id), *id);
            db.add_implementation(&imp, &html, &programs)?;
            Ok(implementation_bytes(&imp, &html, &programs))
        }
        Op::RemoveScript { id } => {
            db.remove_script(&ScriptName::new(own_name(c, *id)))?;
            Ok(0)
        }
        Op::Attach { fam, payload } => {
            let (kind, data) = &tape.payloads[*payload as usize];
            let meta = db.attach_script_resource(
                &ScriptName::new(script_name(c, *fam)),
                *kind,
                data.clone(),
            )?;
            if meta.size != data.len() as u64 {
                return Err(wrong("attach_script_resource"));
            }
            Ok(meta.size + 64)
        }
        Op::Detach { fam, payload } => {
            let id = blobstore::BlobId::of(&tape.payloads[*payload as usize].1);
            db.detach_script_resource(&ScriptName::new(script_name(c, *fam)), id)?;
            Ok(0)
        }
        // The runner checkpoints through the station's own handle.
        Op::Checkpoint => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tape_different_seed_different_tape() {
        for plan in [&AUTHORING, &DURABLE, &BROWSE] {
            let a = generate(plan, 7, 0, 3_000);
            let b = generate(plan, 7, 0, 3_000);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.payloads, b.payloads);
            assert_eq!(a.model, b.model);
            let other_seed = generate(plan, 8, 0, 3_000);
            assert_ne!(a.ops, other_seed.ops);
            let other_client = generate(plan, 7, 1, 3_000);
            assert_ne!(a.ops, other_client.ops);
        }
    }

    #[test]
    fn mix_shares_are_close_to_the_plan() {
        let t = generate(&AUTHORING, 1, 0, 50_000);
        let share =
            |f: fn(&Op) -> bool| t.ops.iter().filter(|o| f(o)).count() as f64 / t.ops.len() as f64;
        assert!((share(|o| matches!(o, Op::Script(_))) - 0.30).abs() < 0.02);
        assert!((share(|o| matches!(o, Op::UpdateScript { .. })) - 0.20).abs() < 0.02);
        assert!((share(|o| matches!(o, Op::AddScript { .. })) - 0.01).abs() < 0.005);
        assert!((share(Op::is_read) - 0.60).abs() < 0.02);
        let d = generate(&DURABLE, 1, 0, 10_000);
        assert_eq!(
            d.ops.iter().filter(|o| matches!(o, Op::Checkpoint)).count(),
            1
        );
        let d1 = generate(&DURABLE, 1, 1, 10_000);
        assert!(!d1.ops.contains(&Op::Checkpoint));
    }

    /// Every verb of every plan is acknowledged by a real station, and
    /// the model predicts the row counts it leaves.
    #[test]
    fn tape_applies_cleanly_and_model_predicts_row_counts() {
        for plan in [&AUTHORING, &BROWSE] {
            let small = Plan {
                families: 128,
                mix: plan.mix,
                checkpoint: false,
            };
            let db = WebDocDb::new();
            seed_station(&db, small.families).unwrap();
            let mut want = seeded_rows(small.families);
            for client in 0..2 {
                let tape = generate(&small, 3, client, 4_000);
                for i in 0..tape.ops.len() {
                    apply(&db, &tape, i).unwrap_or_else(|e| panic!("{:?}: {e}", tape.ops[i]));
                }
                for (t, d) in &tape.model.rows {
                    *want.get_mut(t).unwrap() += d;
                }
            }
            for (table, n) in want {
                let got = db.relational().row_count(table).unwrap() as i64;
                assert_eq!(got, n, "{table}");
            }
        }
    }
}
