//! The Web document DBMS facade.
//!
//! [`WebDocDb`] wires the paper's schema (§3) into the relational
//! substrate, owns the workstation's BLOB store, and exposes the typed
//! operations the rest of the system builds on: document CRUD with
//! cascade semantics, multimedia resource attachment with reference
//! counting, and update-alert propagation over the referential
//! integrity diagram.

use crate::backend::{DocBackend, DocTxn, DurableBackend};
use crate::error::{CoreError, Result};
use crate::hierarchy::ObjectKind;
use crate::ids::{AnnotationName, DbName, ScriptName, StartUrl, TestRecordName, UserId};
use crate::integrity::{Alert, IntegrityDiagram, ObjectRef};
use crate::tables::{
    self, Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord,
};
use blobstore::{BlobExport, BlobId, BlobMeta, BlobStore, MediaKind};
use bytes::Bytes;
use relstore::{AnyEngine, EngineKind, Predicate, RowId, RowRef, Value};
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
/// is the relational layer's one log and the engines it checkpoints.
struct Durable {
    /// The station's write-ahead log, which every engine writes.
    wal: std::sync::Arc<wal::Wal>,
    /// The engines, in shard order (one on an unsharded station).
    engines: Vec<AnyEngine>,
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

    /// Build a **durable** station on a backend of several engines
    /// that share one station write-ahead log — a sharded router
    /// opened with `ShardedBackend::recover`. The BLOB layer is an
    /// append-only compacting log at `dir/blobs.d`: every
    /// store/retain/release is written through immediately, so
    /// attached BLOBs survive a crash with no checkpoint. Errors with
    /// [`CoreError::InvalidInput`] on a backend that has no log.
    pub fn on_durable_backend<B: DurableBackend + 'static>(
        store: Box<B>,
        install_schemas: bool,
        dir: &std::path::Path,
        log_cfg: logstore::LogConfig,
        metrics: obs::Registry,
    ) -> Result<Self> {
        let Some((wal, engines)) = store.station_log() else {
            return Err(CoreError::InvalidInput(
                "backend has no write-ahead log".into(),
            ));
        };
        let durable = Durable {
            wal: wal.clone(),
            engines: engines.to_vec(),
        };
        Self::durable(store, install_schemas, dir, log_cfg, metrics, durable)
    }

    /// The station on `store`, with its BLOB log opened at
    /// `dir/blobs.d` and its relational log attached.
    fn durable(
        store: Box<dyn DocBackend>,
        install_schemas: bool,
        dir: &std::path::Path,
        log_cfg: logstore::LogConfig,
        metrics: obs::Registry,
        durable: Durable,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
        let mut db = Self::on_backend(store, install_schemas)?;
        db.blobs = BlobStore::open_logged(&dir.join("blobs.d"), log_cfg, metrics)
            .map_err(|e| CoreError::Durability(format!("open blob log: {e}")))?;
        db.durable = Some(durable);
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
        let durable = Durable {
            wal,
            engines: vec![rel.clone()],
        };
        let db = Self::durable(Box::new(rel), false, dir, log_cfg, metrics, durable)?;
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
        let lsn = d.wal.checkpoint_station(&d.engines)?;
        self.blobs
            .sync()
            .map_err(|e| CoreError::Durability(format!("sync blob log: {e}")))?;
        Ok(lsn)
    }

    /// The station's write-ahead log, when opened durably (sharded or
    /// not: every engine of the station writes this one log).
    #[must_use]
    pub fn wal(&self) -> Option<&std::sync::Arc<wal::Wal>> {
        self.durable.as_ref().map(|d| &d.wal)
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

    /// Rows of `table` matching `pred`, each decoded by `decode`
    /// straight from the row view [`DocTxn::select_with`] hands over.
    fn select_as<T>(
        &self,
        table: &str,
        pred: &Predicate,
        decode: impl Fn(RowRef<'_>) -> relstore::Result<T>,
    ) -> Result<Vec<T>> {
        Ok(self.with_txn(|t| {
            let mut out = Vec::new();
            t.select_with(table, pred, &mut |_, row| {
                out.push(decode(row)?);
                Ok(())
            })?;
            Ok(out)
        })?)
    }

    /// The first row of `table` matching `pred`, decoded by `decode`.
    fn first_as<T>(
        &self,
        table: &str,
        pred: &Predicate,
        decode: impl Fn(RowRef<'_>) -> relstore::Result<T>,
    ) -> Result<Option<T>> {
        let first = self.with_txn(|t| first_with(t, table, pred, &decode))?;
        Ok(first.map(|(_, v)| v))
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
        self.select_as("wdoc_database", &Predicate::True, |r| {
            Ok(DatabaseInfo {
                name: DbName::new(r.text(0)?.unwrap_or_default()),
                keywords: tables::split_keywords(r.text(1)?.unwrap_or_default()),
                author: UserId::new(r.text(2)?.unwrap_or_default()),
                version: r.int(3)?.unwrap_or_default(),
                created: r.timestamp(4)?.unwrap_or_default(),
            })
        })
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
        let pred = Predicate::eq("name", name.as_str());
        self.first_as(Script::TABLE, &pred, Script::from_row)?
            .ok_or_else(|| CoreError::not_found(ObjectKind::Script, name))
    }

    /// Scripts belonging to one database.
    pub fn scripts_in(&self, db: &DbName) -> Result<Vec<Script>> {
        self.select_as(
            Script::TABLE,
            &Predicate::eq("db", db.as_str()),
            Script::from_row,
        )
    }

    /// Scripts by author.
    pub fn scripts_by_author(&self, author: &UserId) -> Result<Vec<Script>> {
        let pred = Predicate::eq("author", author.as_str());
        self.select_as(Script::TABLE, &pred, Script::from_row)
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
        let pred = Predicate::eq("name", name.as_str());
        let renamed = self.with_txn(|t| {
            let missing = |row| relstore::Error::NoSuchRow {
                table: Script::TABLE.into(),
                row,
            };
            // Decoded under the read; updated once the read is over.
            let found = first_with(t, Script::TABLE, &pred, &|row| Ok(Script::from_row(row)))?;
            let (id, s) = found.ok_or_else(|| missing(RowId(0)))?;
            let mut s = s.map_err(|_| missing(id))?;
            mutate(&mut s);
            if s.name != *name {
                return Ok(true); // rename attempted; reject outside
            }
            t.update(Script::TABLE, id, s.to_row())?;
            Ok(false)
        });
        let renamed = match renamed {
            Ok(r) => r,
            Err(relstore::Error::NoSuchRow { .. }) => {
                return Err(CoreError::not_found(ObjectKind::Script, name));
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
        let pred = Predicate::eq("name", name.as_str());
        self.with_txn(
            |t| match first_with(t, Script::TABLE, &pred, &|_| Ok(()))? {
                Some((id, ())) => t.delete(Script::TABLE, id),
                None => Ok(()),
            },
        )?;
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
        self.attach(Script::RESOURCES, name.as_str(), kind, data.into())
    }

    /// Detach one multimedia resource from a script: deletes its
    /// descriptor row and drops the script's BLOB reference (the
    /// payload is evicted once no reference remains).
    pub fn detach_script_resource(&self, name: &ScriptName, id: BlobId) -> Result<()> {
        let blob = id.to_string();
        let pred = Predicate::eq("owner", name.as_str());
        let removed = self.with_txn(|t| {
            let mut hit = None;
            t.select_with(Script::RESOURCES, &pred, &mut |rid, row| {
                if hit.is_none() && row.text(1)? == Some(blob.as_str()) {
                    hit = Some(rid);
                }
                Ok(())
            })?;
            hit.map(|rid| t.delete(Script::RESOURCES, rid))
                .transpose()?;
            Ok(hit.is_some())
        })?;
        if !removed {
            let name = format!("{blob} on script {}", name.as_str());
            return Err(CoreError::not_found(ObjectKind::MultimediaResource, name));
        }
        self.blobs.release(id);
        Ok(())
    }

    /// Descriptors of a script's multimedia resources.
    pub fn script_resources(&self, name: &ScriptName) -> Result<Vec<BlobMeta>> {
        let pred = Predicate::eq("owner", name.as_str());
        self.select_as(Script::RESOURCES, &pred, tables::resource_from_row)
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
        let pred = Predicate::eq("url", url.as_str());
        self.first_as(Implementation::TABLE, &pred, Implementation::from_row)?
            .ok_or_else(|| CoreError::not_found(ObjectKind::Implementation, url))
    }

    /// Every implementation in the database (global testing scope).
    pub fn all_implementations(&self) -> Result<Vec<Implementation>> {
        self.select_as(
            Implementation::TABLE,
            &Predicate::True,
            Implementation::from_row,
        )
    }

    /// All implementation tries of a script.
    pub fn implementations_of(&self, script: &ScriptName) -> Result<Vec<Implementation>> {
        let pred = Predicate::eq("script", script.as_str());
        self.select_as(Implementation::TABLE, &pred, Implementation::from_row)
    }

    /// HTML files of an implementation.
    pub fn html_files(&self, url: &StartUrl) -> Result<Vec<HtmlFile>> {
        let pred = Predicate::eq("url", url.as_str());
        self.select_as(HtmlFile::TABLE, &pred, HtmlFile::from_row)
    }

    /// Program files of an implementation.
    pub fn program_files(&self, url: &StartUrl) -> Result<Vec<ProgramFile>> {
        let pred = Predicate::eq("url", url.as_str());
        self.select_as(ProgramFile::TABLE, &pred, ProgramFile::from_row)
    }

    /// Attach a multimedia resource to an implementation.
    pub fn attach_implementation_resource(
        &self,
        url: &StartUrl,
        kind: MediaKind,
        data: impl Into<Bytes>,
    ) -> Result<BlobMeta> {
        self.attach(Implementation::RESOURCES, url.as_str(), kind, data.into())
    }

    /// Store `data` in the BLOB layer, taking a reference, and record
    /// its descriptor under `owner` in `table`; the reference is
    /// dropped again if the row cannot be written.
    fn attach(&self, table: &str, owner: &str, kind: MediaKind, data: Bytes) -> Result<BlobMeta> {
        let meta = self.blobs.store(kind, data);
        let row = || tables::resource_row(owner, &meta);
        if let Err(e) = self.with_txn(|t| t.insert(table, row()).map(|_| ())) {
            self.blobs.release(meta.id);
            return Err(e.into());
        }
        Ok(meta)
    }

    /// Descriptors of an implementation's multimedia resources.
    pub fn implementation_resources(&self, url: &StartUrl) -> Result<Vec<BlobMeta>> {
        let pred = Predicate::eq("owner", url.as_str());
        self.select_as(Implementation::RESOURCES, &pred, tables::resource_from_row)
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
        let pred = Predicate::eq("script", script.as_str());
        self.select_as(TestRecord::TABLE, &pred, TestRecord::from_row)
    }

    /// Fetch one test record.
    pub fn test_record(&self, name: &TestRecordName) -> Result<TestRecord> {
        let pred = Predicate::eq("name", name.as_str());
        self.first_as(TestRecord::TABLE, &pred, TestRecord::from_row)?
            .ok_or_else(|| CoreError::not_found(ObjectKind::TestRecord, name))
    }

    /// File a bug report against a test record.
    pub fn add_bug_report(&self, br: &BugReport) -> Result<()> {
        self.with_txn(|t| t.insert(BugReport::TABLE, br.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Bug reports of a test record.
    pub fn bug_reports_of(&self, tr: &TestRecordName) -> Result<Vec<BugReport>> {
        let pred = Predicate::eq("test_record", tr.as_str());
        self.select_as(BugReport::TABLE, &pred, BugReport::from_row)
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
            .map(|(_, bug_row)| Ok(BugReport::from_row(RowRef::decoded(bug_row))?))
            .collect()
    }

    /// Add an instructor annotation.
    pub fn add_annotation(&self, a: &Annotation) -> Result<()> {
        self.with_txn(|t| t.insert(Annotation::TABLE, a.to_row()).map(|_| ()))?;
        Ok(())
    }

    /// Fetch one annotation.
    pub fn annotation(&self, name: &AnnotationName) -> Result<Annotation> {
        let pred = Predicate::eq("name", name.as_str());
        self.first_as(Annotation::TABLE, &pred, Annotation::from_row)?
            .ok_or_else(|| CoreError::not_found(ObjectKind::Annotation, name))
    }

    /// Annotations over an implementation — "an implementation may have
    /// different annotations created by different instructors" (§3).
    pub fn annotations_of(&self, url: &StartUrl) -> Result<Vec<Annotation>> {
        let pred = Predicate::eq("url", url.as_str());
        self.select_as(Annotation::TABLE, &pred, Annotation::from_row)
    }

    /// Bug reports filed by one QA engineer (assessment support).
    pub fn bug_reports_by(&self, qa: &UserId) -> Result<Vec<BugReport>> {
        let pred = Predicate::eq("qa_engineer", qa.as_str());
        self.select_as(BugReport::TABLE, &pred, BugReport::from_row)
    }

    // ------------------------------------------------------------------
    // Integrity propagation
    // ------------------------------------------------------------------

    /// Compute the alert set for an update of `(kind, name)`, resolving
    /// actual children from the live database: each level of the walk is
    /// one committed read (none if no question of it reads a row), so
    /// the set is not read at one cut, nor at the triggering update's.
    pub fn alerts_for(&self, kind: ObjectKind, name: &str) -> Result<Vec<Alert>> {
        let root = ObjectRef::new(kind, name);
        let mut failure: Option<CoreError> = None;
        let alerts = self.diagram.propagate(&root, |level| {
            let answers = if level.iter().any(|&(o, c)| child_rows(o.kind, c).is_some()) {
                self.with_txn(|t| {
                    let mut pred = None;
                    level
                        .iter()
                        .map(|&(o, c)| children_of(t, o, c, &mut pred))
                        .collect()
                })
            } else {
                Ok(level.iter().map(|&(o, c)| named_children(o, c)).collect())
            };
            answers.unwrap_or_else(|e| {
                failure.get_or_insert(e.into());
                vec![Vec::new(); level.len()]
            })
        });
        failure.map_or(Ok(alerts), Err)
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
        let db = Self::on_backend(Box::new(rel), false)?;
        db.blobs.import(backup.blobs.iter().cloned());
        Ok(db)
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Storage breakdown across document and BLOB layers.
    pub fn storage(&self) -> Result<StorageBreakdown> {
        let mut document_bytes = 0u64;
        for schema in Self::station_schemas() {
            document_bytes += self.store.heap_bytes(&schema.name)? as u64;
        }
        let blob = self.blobs.stats();
        Ok(StorageBreakdown {
            document_bytes,
            blob_physical_bytes: blob.physical_bytes,
            blob_logical_bytes: blob.logical_bytes,
        })
    }
}

/// The id of the first row of `table` matching `pred`, with `decode`
/// of its view; later matches are skipped undecoded.
fn first_with<T>(
    t: &dyn DocTxn,
    table: &str,
    pred: &Predicate,
    decode: &dyn Fn(RowRef<'_>) -> relstore::Result<T>,
) -> relstore::Result<Option<(RowId, T)>> {
    let mut first = None;
    t.select_with(table, pred, &mut |id, row| {
        if first.is_none() {
            first = Some((id, decode(row)?));
        }
        Ok(())
    })?;
    Ok(first)
}

/// Where the children of kind `kind` of an `of` object are rows:
/// (child table, column referencing the parent, column returned).
fn child_rows(of: ObjectKind, kind: ObjectKind) -> Option<(&'static str, &'static str, usize)> {
    use ObjectKind as K;
    Some(match (of, kind) {
        (K::Database, K::Script) => (Script::TABLE, "db", 0),
        (K::Script, K::Implementation) => (Implementation::TABLE, "script", 0),
        (K::Script, K::MultimediaResource) => (Script::RESOURCES, "owner", 1),
        (K::Implementation, K::HtmlFile) => (HtmlFile::TABLE, "url", 1),
        (K::Implementation, K::ProgramFile) => (ProgramFile::TABLE, "url", 1),
        (K::Implementation, K::MultimediaResource) => (Implementation::RESOURCES, "owner", 1),
        (K::Implementation, K::TestRecord) => (TestRecord::TABLE, "url", 0),
        (K::TestRecord, K::BugReport) => (BugReport::TABLE, "test_record", 0),
        (K::Implementation, K::Annotation) => (Annotation::TABLE, "url", 0),
        _ => return None,
    })
}

/// Names of `of`'s children of kind `kind`, read in `t`: one text
/// column of the child rows that reference `of`, and nothing else of
/// them read. `pred` holds the previous question's predicate; one on
/// the same column is rewritten in place, so a level of like questions
/// (a test record's bug reports, for each test record) builds one.
fn children_of(
    t: &dyn DocTxn,
    of: &ObjectRef,
    kind: ObjectKind,
    pred: &mut Option<Predicate>,
) -> relstore::Result<Vec<String>> {
    let Some((table, parent, name)) = child_rows(of.kind, kind) else {
        return Ok(named_children(of, kind));
    };
    let pred = match pred {
        Some(Predicate::Eq(col, Value::Text(value))) if col == parent => {
            value.clear();
            value.push_str(of.name.as_str());
            pred.as_ref().expect("matched above")
        }
        _ => pred.insert(Predicate::eq(parent, of.name.as_str())),
    };
    let mut out = Vec::new();
    t.select_with(table, pred, &mut |_, row| {
        out.push(tables::text(row, name, "name")?.to_owned());
        Ok(())
    })?;
    Ok(out)
}

/// `obj`'s children of kind `child` that are not rows: an annotation's
/// file, named after it.
fn named_children(obj: &ObjectRef, child: ObjectKind) -> Vec<String> {
    match (obj.kind, child) {
        (ObjectKind::Annotation, ObjectKind::AnnotationFile) => vec![format!("{}.ann", obj.name)],
        _ => Vec::new(),
    }
}
