//! # wdoc-core — the Web document database
//!
//! Core library of the reproduction of *"The Design and Implementation
//! of a Distributed Web Document Database"* (Shih, Ma & Huang, ICPP
//! 1999): a virtual-course document DBMS for the Multimedia
//! Micro-University project.
//!
//! The crate implements the paper's §3–§4 mechanisms on top of the
//! [`relstore`] relational substrate and the [`blobstore`] BLOB layer:
//!
//! * the **three-layer hierarchy** (database / document / BLOB) with
//!   reference multiplicities — [`hierarchy`];
//! * the **five document tables** (Script, Implementation, TestRecord,
//!   BugReport, Annotation) plus file tables — [`tables`], wired into a
//!   facade with cascade semantics — [`dbms::WebDocDb`];
//! * the **referential integrity diagram** with update-alert
//!   propagation — [`integrity`];
//! * the **object-lock compatibility table** over the containment tree,
//!   enabling collaborative course editing — [`locking`];
//! * the **class / instance / reference** object model with BLOB
//!   sharing — [`objects`];
//! * **SCM check-in/check-out** with version chains — [`scm`];
//! * the **three-tier** roles/permissions and the class-administrator
//!   front-end — [`tier`];
//! * **white/black-box and global document testing** with persisted
//!   test records and bug reports — [`testing`] — and the **course
//!   complexity metric** — [`complexity`];
//! * **quizzes** (graded applet files) — [`quiz`] — and **annotation
//!   playback** — [`playback`];
//! * whole-station **backup/restore** — [`dbms::WebDocDb::backup`].
//!
//! ## Quick start
//!
//! ```
//! use wdoc_core::dbms::{DatabaseInfo, WebDocDb};
//! use wdoc_core::ids::{DbName, ScriptName, UserId};
//! use wdoc_core::tables::Script;
//!
//! let db = WebDocDb::new();
//! db.create_database(&DatabaseInfo {
//!     name: DbName::new("mmu-courses"),
//!     keywords: vec!["virtual-university".into()],
//!     author: UserId::new("shih"),
//!     version: 1,
//!     created: 0,
//! })
//! .unwrap();
//! db.add_script(&Script {
//!     name: ScriptName::new("intro-mm-l1"),
//!     db: DbName::new("mmu-courses"),
//!     keywords: vec!["multimedia".into()],
//!     author: UserId::new("shih"),
//!     version: 1,
//!     created: 0,
//!     description: "Lecture 1".into(),
//!     expected_completion: None,
//!     percent_complete: 100,
//! })
//! .unwrap();
//! assert_eq!(db.scripts_by_author(&UserId::new("shih")).unwrap().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod complexity;
pub mod dbms;
pub mod error;
pub mod hierarchy;
pub mod ids;
pub mod integrity;
pub mod locking;
pub mod objects;
pub mod playback;
pub mod quiz;
pub mod sci;
pub mod scm;
pub mod tables;
pub mod testing;
pub mod tier;

pub use backend::{DocBackend, DocTxn, DurableBackend};
pub use complexity::{ComplexityReport, PageGraph};
pub use dbms::{DatabaseInfo, StationBackup, StorageBreakdown, WebDocDb};
pub use error::{CoreError, Result};
pub use hierarchy::{Layer, Multiplicity, ObjectKind};
pub use ids::{
    AnnotationName, BugReportName, CourseId, DbName, ScriptName, StartUrl, TestRecordName, UserId,
};
pub use integrity::{Alert, IntegrityDiagram, ObjectRef};
pub use locking::{Access, DocTree, LockConflict, NodeId};
pub use objects::{DocumentForm, DocumentInstance, DocumentRef, ObjectManager};
pub use playback::{Pace, PlaybackEvent, PlaybackSchedule};
pub use quiz::{grade_class, GradedQuiz, Question, Quiz, QuizResponse};
pub use sci::{AnnotationOverlay, Page, Sci, Stroke};
pub use scm::{ScmRepo, VersionEntry, WorkingCopy};
pub use testing::{black_box_test, global_test, white_box_test, TestOutcome};
pub use tier::{ActionKind, Registrar, Role, Session};
