//! The Web document DBMS facade.
//!
//! [`WebDocDb`] wires the paper's schema (§3) into the relational
//! substrate, owns the workstation's BLOB store, and exposes the typed
//! operations the rest of the system builds on: document CRUD with
//! cascade semantics, multimedia resource attachment with reference
//! counting, and update-alert propagation over the referential
//! integrity diagram.

use crate::backend::{DocBackend, DocTxn};
use crate::error::{CoreError, Result};
use crate::hierarchy::ObjectKind;
use crate::ids::{AnnotationName, DbName, ScriptName, StartUrl, TestRecordName, UserId};
use crate::integrity::{Alert, IntegrityDiagram, ObjectRef};
use crate::tables::{
    self, Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord,
};
use blobstore::{BlobExport, BlobId, BlobMeta, BlobStore, MediaKind};
use bytes::Bytes;
use relstore::{AnyEngine, EngineKind, Predicate, Value};
use serde::{Deserialize, Serialize};

/// A full station backup: the relational state plus the BLOB layer.
/// Serde-serializable in any format (the 1999 system's "database
/// standard" escape hatch).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StationBackup {
    /// The document/database-layer tables.
    pub relational: relstore::Snapshot,
    /// The BLOB layer with reference counts.
    pub blobs: Vec<BlobExport>,
}

/// One row of the database layer: a Web document database.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseInfo {
    /// Unique database name.
    pub name: DbName,
    /// Describing keywords.
    pub keywords: Vec<String>,
    /// Creator / copyright holder.
    pub author: UserId,
    /// Version.
    pub version: i64,
    /// Creation date/time.
    pub created: u64,
}

/// Storage breakdown across the three layers, for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageBreakdown {
    /// Payload bytes in document-layer tables (HTML, programs,
    /// annotation files, descriptions).
    pub document_bytes: u64,
    /// Physical bytes in the BLOB layer.
    pub blob_physical_bytes: u64,
    /// Logical (reference-weighted) bytes in the BLOB layer.
    pub blob_logical_bytes: u64,
}

/// The Web document database of one workstation (or, sharded, of a
/// whole station cluster behind one facade).
pub struct WebDocDb {
    store: Box<dyn DocBackend>,
    blobs: BlobStore,
    diagram: IntegrityDiagram,
    durable: Option<Durable>,
}

/// The on-disk attachments of a durably opened station. The BLOB
/// layer is write-through ([`BlobStore::open_logged`]); what remains
/// is how the relational layer checkpoints.
struct Durable {
    /// The single local engine's write-ahead log, or `None` when the
    /// backend owns its own log(s) — per-shard WALs behind a router —
    /// and checkpoints them all via [`DocBackend::checkpoint`].
    wal: Option<std::sync::Arc<wal::Wal>>,
}

impl Default for WebDocDb {
    fn default() -> Self {
        Self::new()
    }
}

impl WebDocDb {
    /// Create a fresh in-memory DBMS with the paper's full schema
    /// installed, on the default (strict-2PL) storage engine. For the
    /// MVCC engine, or a sharded router, hand the backend to
    /// [`WebDocDb::on_backend`].
    #[must_use]
    pub fn new() -> Self {
        Self::on_backend(Box::new(AnyEngine::new(EngineKind::TwoPl)), true)
            .expect("static schemas install on a fresh engine")
    }

    /// Build a station on an arbitrary [`DocBackend`] — a local engine
    /// or a sharded router. With `install_schemas`, the paper's schema
    /// is created through the backend (sharded backends also register
    /// each table's routing spec; recovered stores adopt pre-existing
    /// tables, so installation is safe after crash recovery too).
    pub fn on_backend(store: Box<dyn DocBackend>, install_schemas: bool) -> Result<Self> {
        if install_schemas {
            for schema in Self::station_schemas() {
                store.create_table(schema)?;
            }
        }
        Ok(WebDocDb {
            store,
            blobs: BlobStore::new(),
            diagram: IntegrityDiagram::paper_default(),
            durable: None,
        })
    }

    /// Build a **durable** station on a backend that owns its own
    /// write-ahead log(s) — e.g. a router threading per-shard WALs.
    /// The BLOB layer is an append-only compacting log at
    /// `dir/blobs.d`: every store/retain/release is written through
    /// immediately, so attached BLOBs survive a crash with no
    /// checkpoint. The relational layer checkpoints through
    /// [`DocBackend::checkpoint`].
    pub fn on_durable_backend(
        store: Box<dyn DocBackend>,
        install_schemas: bool,
        dir: &std::path::Path,
        log_cfg: logstore::LogConfig,
        metrics: obs::Registry,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
        let mut db = Self::on_backend(store, install_schemas)?;
        db.blobs = BlobStore::open_logged(&dir.join("blobs.d"), log_cfg, metrics)
            .map_err(|e| CoreError::Durability(format!("open blob log: {e}")))?;
        db.durable = Some(Durable { wal: None });
        Ok(db)
    }

    /// The paper's full schema, in foreign-key dependency order.
    #[must_use]
    pub fn station_schemas() -> [relstore::TableSchema; 10] {
        [
            tables::database_schema(),
            Script::schema(),
            Implementation::schema(),
            TestRecord::schema(),
            BugReport::schema(),
            Annotation::schema(),
            HtmlFile::schema(),
            ProgramFile::schema(),
            tables::resource_schema(Script::RESOURCES, Script::TABLE, "name"),
            tables::resource_schema(Implementation::RESOURCES, Implementation::TABLE, "url"),
        ]
    }

    /// Open (or create) a **durable** station rooted at `dir`, on the
    /// one on-disk layout: the write-ahead log as a directory of
    /// segments at `dir/wal.d` (each checkpoint deletes every segment
    /// it fully covers, so the log's disk footprint is bounded by the
    /// checkpoint interval) and the BLOB layer as an append-only
    /// compacting log at `dir/blobs.d`. Opening runs crash recovery
    /// over whatever survived the last session, installs whichever of
    /// the paper's tables the recovered catalog lacks (so the DDL
    /// itself is logged), and attaches the log so every subsequent
    /// transaction is durable.
    ///
    /// To bound memory, pass a [`wal::WalOptions::pool`] built with
    /// `relstore::PoolConfig::log(dir.join("pages.d"), ..)` — all three
    /// layers then share the same storage discipline. The storage
    /// engine is selected by [`wal::WalOptions::engine`]; the log
    /// format is engine-agnostic, so an existing station can be
    /// reopened under either engine.
    pub fn open_durable_logged(
        dir: &std::path::Path,
        opts: wal::WalOptions,
        log_cfg: logstore::LogConfig,
    ) -> Result<(WebDocDb, wal::RecoveryReport)> {
        let opts = wal::WalOptions {
            segment_bytes: Some(opts.segment_bytes.unwrap_or(log_cfg.segment_bytes)),
            ..opts
        };
        let metrics = opts.metrics.clone();
        let (rel, wal, report) = wal::open_durable_any(&dir.join("wal.d"), opts)?;
        // Every DDL frame is durable on its own, so a crash during the
        // first open leaves any prefix of the schema behind.
        let have = rel.table_names();
        for schema in Self::station_schemas() {
            if !have.contains(&schema.name) {
                rel.create_table(schema)?;
            }
        }
        let mut db = Self::on_durable_backend(Box::new(rel), false, dir, log_cfg, metrics)?;
        db.durable = Some(Durable { wal: Some(wal) });
        Ok((db, report))
    }

    /// Checkpoint a durable station: embed a transaction-consistent
    /// snapshot in the log (bounding future recovery time and pruning
    /// the segments it covers) and fsync the BLOB log beside it.
    /// Returns the checkpoint's LSN.
    ///
    /// Errors with [`CoreError::InvalidInput`] on a non-durable
    /// (in-memory) station.
    pub fn checkpoint(&self) -> Result<wal::Lsn> {
        let Some(d) = &self.durable else {
            return Err(CoreError::InvalidInput(
                "checkpoint on a non-durable station".into(),
            ));
        };
        let lsn = match &d.wal {
            Some(wal) => wal.checkpoint_any(
                self.store
                    .as_engine()
                    .expect("a station-owned log is only attached to a single local engine"),
            )?,
            None => self.store.checkpoint()?.ok_or_else(|| {
                CoreError::InvalidInput("backend has no write-ahead log to checkpoint".into())
            })?,
        };
        self.blobs
            .sync()
            .map_err(|e| CoreError::Durability(format!("sync blob log: {e}")))?;
        Ok(lsn)
    }

    /// The write-ahead log handle, when opened durably on a single
    /// local engine (sharded stations own one log per shard; reach
    /// them through the router).
    #[must_use]
    pub fn wal(&self) -> Option<&std::sync::Arc<wal::Wal>> {
        self.durable.as_ref().and_then(|d| d.wal.as_ref())
    }

    /// The storage backend the facade runs on.
    #[must_use]
    pub fn backend(&self) -> &dyn DocBackend {
        self.store.as_ref()
    }

    /// Run `f` in one transaction on the backend, committing on
    /// success and retrying transparently on transient aborts — the
    /// typed facade methods are all built on this, and it is public as
    /// the escape hatch for tools that need raw relational access on
    /// *any* backend (sharded included).
    pub fn with_txn<T>(
        &self,
        f: impl Fn(&dyn DocTxn) -> relstore::Result<T>,
    ) -> relstore::Result<T> {
        let mut slot = None;
        self.store.with_txn_dyn(&mut |t| {
            slot = Some(f(t)?);
            Ok(())
        })?;
        Ok(slot.expect("with_txn_dyn runs the closure before Ok"))
    }

    /// The relational substrate (escape hatch for tools and tests).
    ///
    /// # Panics
    /// On a sharded station, which has no single engine — use
    /// [`WebDocDb::with_txn`] or [`WebDocDb::backend`] instead.
    #[must_use]
    pub fn relational(&self) -> &AnyEngine {
        self.store
            .as_engine()
            .expect("relational(): sharded station has no single engine; use with_txn/backend")
    }

    /// Which storage engine backs the relational layer.
    #[must_use]
    pub fn engine_kind(&self) -> EngineKind {
        self.store.engine_kind()
    }

    /// How many shards the station spans (1 when unsharded).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.store.shards()
    }

    /// This workstation's BLOB store.
    #[must_use]
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// The referential integrity diagram in force.
    #[must_use]
    pub fn diagram(&self) -> &IntegrityDiagram {
        &self.diagram
    }

    // ------------------------------------------------------------------
    // Database layer
    // ------------------------------------------------------------------

    /// Register a Web document database.
    pub fn create_database(&self, info: &DatabaseInfo) -> Result<()> {
        self.with_txn(|t| {
            t.insert(
                "wdoc_database",
                vec![
                    info.name.as_str().into(),
                    tables::join_keywords(&info.keywords).into(),
                    info.author.as_str().into(),
                    Value::Int(info.version),
                    Value::Timestamp(info.created),
                ],
            )
            .map(|_| ())
        })?;
        Ok(())
    }

    /// All registered databases.
    pub fn databases(&self) -> Result<Vec<DatabaseInfo>> {
        let rows = self.with_txn(|t| t.select("wdoc_database", &Predicate::True))?;
        rows.iter()
            .map(|(_, r)| {
                Ok(DatabaseInfo {
                    name: DbName::new(r[0].as_text().unwrap_or_default()),
                    keywords: tables::split_keywords(r[1].as_text().unwrap_or_default()),
                    author: UserId::new(r[2].as_text().unwrap_or_default()),
                    version: r[3].as_int().unwrap_or_default(),
                    created: r[4].as_timestamp().unwrap_or_default(),
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Scripts
    // ------------------------------------------------------------------

    /// Add a script (its database must exist).
    pub fn add_script(&self, s: &Script) -> Result<()> {
        self.with_txn(|t| t.insert(Script::TABLE, s.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Fetch a script by name.
    pub fn script(&self, name: &ScriptName) -> Result<Script> {
        let rows =
            self.with_txn(|t| t.select(Script::TABLE, &Predicate::eq("name", name.as_str())))?;
        match rows.first() {
            Some((_, row)) => Ok(Script::from_row(row)?),
            None => Err(CoreError::NotFound {
                kind: ObjectKind::Script,
                name: name.to_string(),
            }),
        }
    }

    /// Scripts belonging to one database.
    pub fn scripts_in(&self, db: &DbName) -> Result<Vec<Script>> {
        let rows = self.with_txn(|t| t.select(Script::TABLE, &Predicate::eq("db", db.as_str())))?;
        rows.iter().map(|(_, r)| Ok(Script::from_row(r)?)).collect()
    }

    /// Scripts by author.
    pub fn scripts_by_author(&self, author: &UserId) -> Result<Vec<Script>> {
        let rows =
            self.with_txn(|t| t.select(Script::TABLE, &Predicate::eq("author", author.as_str())))?;
        rows.iter().map(|(_, r)| Ok(Script::from_row(r)?)).collect()
    }

    /// Update a script through a closure; returns the integrity alerts
    /// triggered by the update (§3: "if the source object is updated,
    /// the system will trigger a message which alerts the user to
    /// update the destination object").
    pub fn update_script(
        &self,
        name: &ScriptName,
        mutate: impl Fn(&mut Script),
    ) -> Result<Vec<Alert>> {
        // Read-modify-write inside one transaction, so a concurrent
        // committed update cannot be clobbered by a stale full-row
        // write (the closure may run again if wait-die retries).
        let renamed = self.with_txn(|t| {
            let rows = t.select(Script::TABLE, &Predicate::eq("name", name.as_str()))?;
            let (id, row) = rows.first().ok_or(relstore::Error::NoSuchRow {
                table: Script::TABLE.into(),
                row: relstore::RowId(0),
            })?;
            let mut s = Script::from_row(row).map_err(|_| relstore::Error::NoSuchRow {
                table: Script::TABLE.into(),
                row: *id,
            })?;
            mutate(&mut s);
            if s.name != *name {
                return Ok(true); // rename attempted; reject outside
            }
            t.update(Script::TABLE, *id, s.to_row())?;
            Ok(false)
        });
        let renamed = match renamed {
            Ok(r) => r,
            Err(relstore::Error::NoSuchRow { .. }) => {
                return Err(CoreError::NotFound {
                    kind: ObjectKind::Script,
                    name: name.to_string(),
                });
            }
            Err(e) => return Err(e.into()),
        };
        if renamed {
            return Err(CoreError::InvalidInput(
                "script renames are not supported (the name is the identity)".into(),
            ));
        }
        self.alerts_for(ObjectKind::Script, name.as_str())
    }

    /// Delete a script; cascades to implementations, files, tests, bug
    /// reports and annotations, and releases all BLOB references held
    /// by the script and its implementations.
    pub fn remove_script(&self, name: &ScriptName) -> Result<()> {
        // Collect blob references before the cascade destroys the rows.
        let mut metas = self.script_resources(name)?;
        for imp in self.implementations_of(name)? {
            metas.extend(self.implementation_resources(&imp.url)?);
        }
        self.with_txn(|t| {
            let rows = t.select(Script::TABLE, &Predicate::eq("name", name.as_str()))?;
            match rows.first() {
                Some((id, _)) => t.delete(Script::TABLE, *id),
                None => Ok(()),
            }
        })?;
        for m in metas {
            self.blobs.release(m.id);
        }
        Ok(())
    }

    /// Attach a multimedia resource to a script: stores the payload in
    /// the BLOB layer (taking a reference) and records the descriptor.
    pub fn attach_script_resource(
        &self,
        name: &ScriptName,
        kind: MediaKind,
        data: impl Into<Bytes>,
    ) -> Result<BlobMeta> {
        let meta = self.blobs.store(kind, data);
        let res = self.with_txn(|t| {
            t.insert(
                Script::RESOURCES,
                tables::resource_row(name.as_str(), &meta),
            )
            .map(|_| ())
        });
        if let Err(e) = res {
            self.blobs.release(meta.id);
            return Err(e.into());
        }
        Ok(meta)
    }

    /// Detach one multimedia resource from a script: deletes its
    /// descriptor row and drops the script's BLOB reference (the
    /// payload is evicted once no reference remains).
    pub fn detach_script_resource(&self, name: &ScriptName, id: BlobId) -> Result<()> {
        let blob = id.to_string();
        let removed = self.with_txn(|t| {
            let rows = t.select(Script::RESOURCES, &Predicate::eq("owner", name.as_str()))?;
            for (rid, row) in rows {
                if row.get(1).and_then(Value::as_text) == Some(blob.as_str()) {
                    t.delete(Script::RESOURCES, rid)?;
                    return Ok(true);
                }
            }
            Ok(false)
        })?;
        if !removed {
            return Err(CoreError::NotFound {
                kind: ObjectKind::MultimediaResource,
                name: format!("{blob} on script {}", name.as_str()),
            });
        }
        self.blobs.release(id);
        Ok(())
    }

    /// Descriptors of a script's multimedia resources.
    pub fn script_resources(&self, name: &ScriptName) -> Result<Vec<BlobMeta>> {
        let rows =
            self.with_txn(|t| t.select(Script::RESOURCES, &Predicate::eq("owner", name.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(tables::resource_from_row(r)?))
            .collect()
    }

    // ------------------------------------------------------------------
    // Implementations and their files
    // ------------------------------------------------------------------

    /// Add an implementation with its files. The paper requires at
    /// least one HTML file per implementation.
    pub fn add_implementation(
        &self,
        imp: &Implementation,
        html: &[HtmlFile],
        programs: &[ProgramFile],
    ) -> Result<()> {
        if html.is_empty() {
            return Err(CoreError::InvalidInput(
                "each implementation contains at least one HTML file (§3)".into(),
            ));
        }
        if html.iter().any(|h| h.url != imp.url) || programs.iter().any(|p| p.url != imp.url) {
            return Err(CoreError::InvalidInput(
                "file rows must belong to the implementation being added".into(),
            ));
        }
        self.with_txn(|t| {
            t.insert(Implementation::TABLE, imp.to_row())?;
            for h in html {
                t.insert(HtmlFile::TABLE, h.to_row())?;
            }
            for p in programs {
                t.insert(ProgramFile::TABLE, p.to_row())?;
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Fetch an implementation by starting URL.
    pub fn implementation(&self, url: &StartUrl) -> Result<Implementation> {
        let rows = self
            .with_txn(|t| t.select(Implementation::TABLE, &Predicate::eq("url", url.as_str())))?;
        match rows.first() {
            Some((_, row)) => Ok(Implementation::from_row(row)?),
            None => Err(CoreError::NotFound {
                kind: ObjectKind::Implementation,
                name: url.to_string(),
            }),
        }
    }

    /// Every implementation in the database (global testing scope).
    pub fn all_implementations(&self) -> Result<Vec<Implementation>> {
        let rows = self.with_txn(|t| t.select(Implementation::TABLE, &Predicate::True))?;
        rows.iter()
            .map(|(_, r)| Ok(Implementation::from_row(r)?))
            .collect()
    }

    /// All implementation tries of a script.
    pub fn implementations_of(&self, script: &ScriptName) -> Result<Vec<Implementation>> {
        let rows = self.with_txn(|t| {
            t.select(
                Implementation::TABLE,
                &Predicate::eq("script", script.as_str()),
            )
        })?;
        rows.iter()
            .map(|(_, r)| Ok(Implementation::from_row(r)?))
            .collect()
    }

    /// HTML files of an implementation.
    pub fn html_files(&self, url: &StartUrl) -> Result<Vec<HtmlFile>> {
        let rows =
            self.with_txn(|t| t.select(HtmlFile::TABLE, &Predicate::eq("url", url.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(HtmlFile::from_row(r)?))
            .collect()
    }

    /// Program files of an implementation.
    pub fn program_files(&self, url: &StartUrl) -> Result<Vec<ProgramFile>> {
        let rows =
            self.with_txn(|t| t.select(ProgramFile::TABLE, &Predicate::eq("url", url.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(ProgramFile::from_row(r)?))
            .collect()
    }

    /// Attach a multimedia resource to an implementation.
    pub fn attach_implementation_resource(
        &self,
        url: &StartUrl,
        kind: MediaKind,
        data: impl Into<Bytes>,
    ) -> Result<BlobMeta> {
        let meta = self.blobs.store(kind, data);
        let res = self.with_txn(|t| {
            t.insert(
                Implementation::RESOURCES,
                tables::resource_row(url.as_str(), &meta),
            )
            .map(|_| ())
        });
        if let Err(e) = res {
            self.blobs.release(meta.id);
            return Err(e.into());
        }
        Ok(meta)
    }

    /// Descriptors of an implementation's multimedia resources.
    pub fn implementation_resources(&self, url: &StartUrl) -> Result<Vec<BlobMeta>> {
        let rows = self.with_txn(|t| {
            t.select(
                Implementation::RESOURCES,
                &Predicate::eq("owner", url.as_str()),
            )
        })?;
        rows.iter()
            .map(|(_, r)| Ok(tables::resource_from_row(r)?))
            .collect()
    }

    // ------------------------------------------------------------------
    // Test records, bug reports, annotations
    // ------------------------------------------------------------------

    /// Record a test run.
    pub fn add_test_record(&self, tr: &TestRecord) -> Result<()> {
        self.with_txn(|t| t.insert(TestRecord::TABLE, tr.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Test records of a script.
    pub fn test_records_of(&self, script: &ScriptName) -> Result<Vec<TestRecord>> {
        let rows = self
            .with_txn(|t| t.select(TestRecord::TABLE, &Predicate::eq("script", script.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(TestRecord::from_row(r)?))
            .collect()
    }

    /// Fetch one test record.
    pub fn test_record(&self, name: &TestRecordName) -> Result<TestRecord> {
        let rows =
            self.with_txn(|t| t.select(TestRecord::TABLE, &Predicate::eq("name", name.as_str())))?;
        match rows.first() {
            Some((_, row)) => Ok(TestRecord::from_row(row)?),
            None => Err(CoreError::NotFound {
                kind: ObjectKind::TestRecord,
                name: name.to_string(),
            }),
        }
    }

    /// File a bug report against a test record.
    pub fn add_bug_report(&self, br: &BugReport) -> Result<()> {
        self.with_txn(|t| t.insert(BugReport::TABLE, br.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Bug reports of a test record.
    pub fn bug_reports_of(&self, tr: &TestRecordName) -> Result<Vec<BugReport>> {
        let rows = self
            .with_txn(|t| t.select(BugReport::TABLE, &Predicate::eq("test_record", tr.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(BugReport::from_row(r)?))
            .collect()
    }

    /// All bug reports filed against any test record of a script — a
    /// relational join (test_record ⋈ bug_report) in one transaction.
    pub fn bug_reports_of_script(&self, script: &ScriptName) -> Result<Vec<BugReport>> {
        let pairs = self.with_txn(|t| {
            t.join(
                TestRecord::TABLE,
                "name",
                &Predicate::eq("script", script.as_str()),
                BugReport::TABLE,
                "test_record",
                &Predicate::True,
            )
        })?;
        pairs
            .iter()
            .map(|(_, bug_row)| Ok(BugReport::from_row(bug_row)?))
            .collect()
    }

    /// Add an instructor annotation.
    pub fn add_annotation(&self, a: &Annotation) -> Result<()> {
        self.with_txn(|t| t.insert(Annotation::TABLE, a.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Fetch one annotation.
    pub fn annotation(&self, name: &AnnotationName) -> Result<Annotation> {
        let rows =
            self.with_txn(|t| t.select(Annotation::TABLE, &Predicate::eq("name", name.as_str())))?;
        match rows.first() {
            Some((_, row)) => Ok(Annotation::from_row(row)?),
            None => Err(CoreError::NotFound {
                kind: ObjectKind::Annotation,
                name: name.to_string(),
            }),
        }
    }

    /// Annotations over an implementation — "an implementation may have
    /// different annotations created by different instructors" (§3).
    pub fn annotations_of(&self, url: &StartUrl) -> Result<Vec<Annotation>> {
        let rows =
            self.with_txn(|t| t.select(Annotation::TABLE, &Predicate::eq("url", url.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(Annotation::from_row(r)?))
            .collect()
    }

    /// Bug reports filed by one QA engineer (assessment support).
    pub fn bug_reports_by(&self, qa: &UserId) -> Result<Vec<BugReport>> {
        let rows = self
            .with_txn(|t| t.select(BugReport::TABLE, &Predicate::eq("qa_engineer", qa.as_str())))?;
        rows.iter()
            .map(|(_, r)| Ok(BugReport::from_row(r)?))
            .collect()
    }

    // ------------------------------------------------------------------
    // Integrity propagation
    // ------------------------------------------------------------------

    /// Compute the alert set for an update of `(kind, name)`, resolving
    /// actual children from the live database.
    pub fn alerts_for(&self, kind: ObjectKind, name: &str) -> Result<Vec<Alert>> {
        let root = ObjectRef::new(kind, name);
        let mut failure: Option<CoreError> = None;
        let alerts = self.diagram.propagate(&root, |obj, child_kind| {
            match self.children_of(obj, child_kind) {
                Ok(names) => names,
                Err(e) => {
                    failure.get_or_insert(e);
                    Vec::new()
                }
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(alerts),
        }
    }

    fn children_of(&self, obj: &ObjectRef, child: ObjectKind) -> Result<Vec<String>> {
        use ObjectKind as K;
        Ok(match (obj.kind, child) {
            (K::Database, K::Script) => self
                .scripts_in(&DbName::new(obj.name.clone()))?
                .into_iter()
                .map(|s| s.name.0)
                .collect(),
            (K::Script, K::Implementation) => self
                .implementations_of(&ScriptName::new(obj.name.clone()))?
                .into_iter()
                .map(|i| i.url.0)
                .collect(),
            (K::Script, K::MultimediaResource) => self
                .script_resources(&ScriptName::new(obj.name.clone()))?
                .into_iter()
                .map(|m| m.id.to_string())
                .collect(),
            (K::Implementation, K::HtmlFile) => self
                .html_files(&StartUrl::new(obj.name.clone()))?
                .into_iter()
                .map(|h| h.path)
                .collect(),
            (K::Implementation, K::ProgramFile) => self
                .program_files(&StartUrl::new(obj.name.clone()))?
                .into_iter()
                .map(|p| p.path)
                .collect(),
            (K::Implementation, K::MultimediaResource) => self
                .implementation_resources(&StartUrl::new(obj.name.clone()))?
                .into_iter()
                .map(|m| m.id.to_string())
                .collect(),
            (K::Implementation, K::TestRecord) => {
                let rows = self.with_txn(|t| {
                    t.select(TestRecord::TABLE, &Predicate::eq("url", obj.name.as_str()))
                })?;
                rows.iter()
                    .filter_map(|(_, r)| r[0].as_text().map(str::to_owned))
                    .collect()
            }
            (K::TestRecord, K::BugReport) => self
                .bug_reports_of(&TestRecordName::new(obj.name.clone()))?
                .into_iter()
                .map(|b| b.name.0)
                .collect(),
            (K::Implementation, K::Annotation) => self
                .annotations_of(&StartUrl::new(obj.name.clone()))?
                .into_iter()
                .map(|a| a.name.0)
                .collect(),
            (K::Annotation, K::AnnotationFile) => vec![format!("{}.ann", obj.name)],
            _ => Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Quizzes
    // ------------------------------------------------------------------

    /// Attach a quiz to an implementation as its applet program file
    /// (the 1999 delivery vehicle). The file is named
    /// `quiz-<n>.class` after the existing quiz count.
    pub fn attach_quiz(&self, url: &StartUrl, quiz: &crate::quiz::Quiz) -> Result<String> {
        let existing = self.quizzes_of(url)?.len();
        let path = format!("quiz-{existing}.class");
        let file = quiz.to_program_file(url, path.clone())?;
        self.with_txn(|t| t.insert(ProgramFile::TABLE, file.to_row()).map(|_| ()))?;
        Ok(path)
    }

    /// All quizzes delivered with an implementation (program files that
    /// parse as quizzes).
    pub fn quizzes_of(&self, url: &StartUrl) -> Result<Vec<crate::quiz::Quiz>> {
        Ok(self
            .program_files(url)?
            .iter()
            .filter_map(crate::quiz::Quiz::from_program_file)
            .collect())
    }

    // ------------------------------------------------------------------
    // Backup / restore
    // ------------------------------------------------------------------

    /// Capture the whole workstation state: relational tables + BLOBs.
    pub fn backup(&self) -> Result<StationBackup> {
        Ok(StationBackup {
            relational: self.store.snapshot()?,
            blobs: self.blobs.export(),
        })
    }

    /// Rebuild a workstation from a backup (on the default 2PL engine;
    /// use [`WebDocDb::restore_on`] to pick).
    pub fn restore(backup: &StationBackup) -> Result<WebDocDb> {
        Self::restore_on(backup, EngineKind::TwoPl)
    }

    /// Rebuild a workstation from a backup on the given engine.
    pub fn restore_on(backup: &StationBackup, kind: EngineKind) -> Result<WebDocDb> {
        let rel = AnyEngine::restore(kind, &backup.relational)?;
        let blobs = BlobStore::new();
        blobs.import(backup.blobs.iter().cloned());
        Ok(WebDocDb {
            store: Box::new(rel),
            blobs,
            diagram: IntegrityDiagram::paper_default(),
            durable: None,
        })
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Storage breakdown across document and BLOB layers.
    pub fn storage(&self) -> Result<StorageBreakdown> {
        let mut document_bytes = 0u64;
        for table in [
            "wdoc_database",
            Script::TABLE,
            Implementation::TABLE,
            TestRecord::TABLE,
            BugReport::TABLE,
            Annotation::TABLE,
            HtmlFile::TABLE,
            ProgramFile::TABLE,
            Script::RESOURCES,
            Implementation::RESOURCES,
        ] {
            document_bytes += self.store.heap_bytes(table)? as u64;
        }
        let blob = self.blobs.stats();
        Ok(StorageBreakdown {
            document_bytes,
            blob_physical_bytes: blob.physical_bytes,
            blob_logical_bytes: blob.logical_bytes,
        })
    }
}
