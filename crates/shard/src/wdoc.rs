//! Routing for the paper's document catalog, and the sharded storage
//! backend over it.
//!
//! The placement follows the catalog's foreign-key geometry so that
//! every constraint the engine enforces stays intra-shard:
//!
//! * `wdoc_database` is tiny (one row per courseware database) and
//!   referenced from everywhere, so it is [`RoutingSpec::Global`] —
//!   fully replicated, forward-FK probes always succeed locally.
//! * `script` hashes on its own primary key (`name`);
//!   `implementation`, `test_record` and `annotation` hash on their
//!   `script` column. Hashing *values* (not `(table, value)`) makes
//!   all four land on the same shard for the same script, so the
//!   CASCADE edges from `script` and the SET NULL edges from
//!   `implementation` (a test record / annotation only ever cites an
//!   implementation of its *own* script) never cross shards.
//! * `html_file` / `program_file` ride [`RoutingSpec::ByParent`] on
//!   their `url` column: wherever the owning implementation row went
//!   (by its script hash), the files follow via the homes directory.
//! * `bug_report` rides `ByParent` on `test_record` the same way.
//!
//! [`ShardedBackend`] puts a [`Router`] loaded with this catalog
//! behind [`wdoc_core::DocBackend`], so the one typed station —
//! `WebDocDb::on_backend(Box::new(ShardedBackend::new(..)), true)` —
//! runs on N shards exactly as it runs on one engine.

use crate::map::ShardMap;
use crate::router::{Router, RoutingSpec};
use obs::Registry;
use relstore::{AnyEngine, DocBackend, DocTxn, EngineKind, Result, TableSchema};
use std::path::Path;
use std::sync::Arc;
use wdoc_core::tables::{
    self, Annotation, BugReport, HtmlFile, Implementation, ProgramFile, Script, TestRecord,
};

/// The sharded catalog: every document-layer table with its routing
/// spec, in dependency order (parents before children — the router
/// requires `ByParent` targets to be registered first).
#[must_use]
pub fn catalog() -> Vec<(TableSchema, RoutingSpec)> {
    let by_script = || RoutingSpec::ByColumn("script".into());
    let by_url = || RoutingSpec::ByParent {
        col: "url".into(),
        parent: Implementation::TABLE.into(),
        fallback: "url".into(),
    };
    vec![
        (tables::database_schema(), RoutingSpec::Global),
        (Script::schema(), RoutingSpec::ByColumn("name".into())),
        (Implementation::schema(), by_script()),
        (HtmlFile::schema(), by_url()),
        (ProgramFile::schema(), by_url()),
        (TestRecord::schema(), by_script()),
        (
            BugReport::schema(),
            RoutingSpec::ByParent {
                col: "test_record".into(),
                parent: TestRecord::TABLE.into(),
                fallback: "name".into(),
            },
        ),
        (Annotation::schema(), by_script()),
        // BLOB-descriptor junction tables: a script's resources hash on
        // the owning script name (same value, same shard — the CASCADE
        // stays local); an implementation's resources follow the
        // implementation's home, which is its *script's* hash, so they
        // ride the homes directory like the file tables do.
        (
            tables::resource_schema(Script::RESOURCES, Script::TABLE, "name"),
            RoutingSpec::ByColumn("owner".into()),
        ),
        (
            tables::resource_schema(Implementation::RESOURCES, Implementation::TABLE, "url"),
            RoutingSpec::ByParent {
                col: "owner".into(),
                parent: Implementation::TABLE.into(),
                fallback: "owner".into(),
            },
        ),
    ]
}

/// The routing spec [`catalog`] assigns to `table`, if it is one of
/// the paper's document tables.
#[must_use]
pub fn routing_spec_for(table: &str) -> Option<RoutingSpec> {
    catalog()
        .into_iter()
        .find(|(s, _)| s.name == table)
        .map(|(_, spec)| spec)
}

/// A [`Router`] behind [`wdoc_core::DocBackend`]: the storage facade
/// that lets a **full typed station** — [`wdoc_core::WebDocDb`] with
/// its integrity diagram, BLOB layer, SCM, locking, everything — run
/// on N hash-partitioned shards instead of one engine. Tables created
/// through it pick up their routing spec from [`catalog`] (unknown
/// tables fall back to [`RoutingSpec::Global`], which is correct at
/// any shard count); on a recovered store the tables are adopted and
/// the gid/homes directories rebuilt instead.
pub struct ShardedBackend {
    router: Router,
}

impl ShardedBackend {
    /// In-memory sharded backend over `shards` uniform hash partitions.
    #[must_use]
    pub fn new(kind: EngineKind, shards: u32, metrics: Registry) -> Self {
        ShardedBackend {
            router: Router::new(kind, ShardMap::uniform(shards), metrics),
        }
    }

    /// Durable sharded backend rooted at `dir` (every shard writes the
    /// one station log at `dir/wal.d`, see [`Router::recover`]):
    /// recovers whatever the last session left, one report per shard.
    /// On a fresh directory the reports are empty. Hand the result to
    /// [`wdoc_core::WebDocDb::on_durable_backend`] with the same `dir`
    /// for a durable sharded station (installing the schema adopts the
    /// recovered tables and rebuilds the routing directories).
    pub fn recover(
        shards: u32,
        dir: &Path,
        opts: wal::WalOptions,
    ) -> std::result::Result<(Self, Vec<wal::RecoveryReport>), wal::WalError> {
        let (router, reports) = Router::recover(ShardMap::uniform(shards), dir, opts)?;
        Ok((ShardedBackend { router }, reports))
    }

    /// The router underneath (metrics, per-shard engines, shard map).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }
}

impl DocBackend for ShardedBackend {
    fn engine_kind(&self) -> EngineKind {
        self.router.engine(0).kind()
    }
    fn shards(&self) -> usize {
        self.router.shards()
    }
    fn create_table(&self, schema: TableSchema) -> Result<()> {
        let spec = routing_spec_for(&schema.name).unwrap_or(RoutingSpec::Global);
        self.router.mount_table(schema, spec)
    }
    fn with_txn_dyn(&self, f: &mut dyn FnMut(&dyn DocTxn) -> Result<()>) -> Result<()> {
        let f = std::cell::RefCell::new(f);
        self.router.with_txn(|t| (f.borrow_mut())(t as &dyn DocTxn))
    }
    fn snapshot(&self) -> Result<relstore::Snapshot> {
        Err(relstore::Error::Unsupported(
            "whole-station snapshot of a sharded router: there is no single \
             consistent engine state to capture; snapshot each shard's engine"
                .into(),
        ))
    }
    fn heap_bytes(&self, table: &str) -> Result<usize> {
        self.router.heap_bytes(table)
    }
}

impl wdoc_core::DurableBackend for ShardedBackend {
    fn station_log(&self) -> Option<(&Arc<wal::Wal>, &[AnyEngine])> {
        Some((self.router.wal()?, self.router.engines()))
    }
}
