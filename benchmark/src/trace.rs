//! The traced run: spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! Decorators sit on the public trait seams — [`DocBackend`]/[`DocTxn`]
//! under `WebDocDb::on_backend`, [`WalSink`] under
//! `AnyEngine::set_wal_sink` — and record `{id, parent, req, name,
//! start_ns, end_ns}` into a per-thread vector (every station call runs
//! on its client's thread, so no span ever crosses threads). `req` is
//! the verb's tape index, shared by all of that verb's spans. Nothing
//! is written out until the run ends.
//!
//! A span's layer is the prefix of its name (`relstore.select` →
//! `relstore`); a layer's self time is its spans' durations minus the
//! part their child spans cover.

use relstore::wal::{RowOp, WalSink};
use relstore::{
    AnyEngine, EngineKind, Predicate, Result, Row, RowId, Snapshot, TableSchema, Value,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wdoc_core::{DocBackend, DocTxn};

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Default)]
struct Recorder {
    on: bool,
    req: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording on this thread.
pub fn start_thread() {
    now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        *r = Recorder::default();
        r.on = true;
    });
}

/// Stop recording on this thread and hand over its spans.
pub fn finish_thread() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()).spans)
}

/// Spans opened from here on belong to request `req`.
pub fn set_req(req: u32) {
    REC.with(|r| r.borrow_mut().req = req);
}

/// An open span; closes when dropped. A no-op on threads that are not
/// recording (set-up, checks).
pub struct Open(Option<u32>);

pub fn span(name: &'static str) -> Open {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Open(None);
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let req = r.req;
        r.open.push(id);
        r.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        Open(Some(id))
    })
}

impl Drop for Open {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[id as usize].end_ns = end;
                r.open.pop();
            });
        }
    }
}

// ----------------------------------------------------------- decorators

/// What the decorators count beside the spans, so the ratio is
/// measured where the work happens: rows `select` handed back (the
/// registry's `rows_examined` is divided by it). Transactions and
/// operations per verb are counted from the spans themselves.
#[derive(Default)]
pub struct Counts {
    pub rows_returned: AtomicU64,
}

/// Span names of one backend layer.
pub struct Names {
    txn: &'static str,
    insert: &'static str,
    get: &'static str,
    update: &'static str,
    delete: &'static str,
    select: &'static str,
    other: &'static str,
}

pub const RELSTORE: Names = Names {
    txn: "relstore.txn",
    insert: "relstore.insert",
    get: "relstore.get",
    update: "relstore.update",
    delete: "relstore.delete",
    select: "relstore.select",
    other: "relstore.query",
};

pub const SHARD: Names = Names {
    txn: "shard.txn",
    insert: "shard.insert",
    get: "shard.get",
    update: "shard.update",
    delete: "shard.delete",
    select: "shard.select",
    other: "shard.query",
};

/// The code a verb runs inside its transaction closure is core's.
const CLOSURE: &str = "core.closure";

/// A [`DocBackend`] that records a span around every call into the
/// backend it wraps and forwards everything unchanged.
pub struct TracedBackend<B> {
    inner: B,
    names: &'static Names,
    counts: Arc<Counts>,
}

impl<B: DocBackend> TracedBackend<B> {
    pub fn new(inner: B, names: &'static Names, counts: Arc<Counts>) -> Self {
        TracedBackend {
            inner,
            names,
            counts,
        }
    }
}

struct TracedTxn<'a> {
    inner: &'a dyn DocTxn,
    names: &'static Names,
    counts: &'a Counts,
}

impl DocTxn for TracedTxn<'_> {
    fn insert(&self, table: &str, row: Row) -> Result<RowId> {
        let _s = span(self.names.insert);
        self.inner.insert(table, row)
    }
    fn get(&self, table: &str, id: RowId) -> Result<Row> {
        let _s = span(self.names.get);
        self.inner.get(table, id)
    }
    fn update(&self, table: &str, id: RowId, row: Row) -> Result<()> {
        let _s = span(self.names.update);
        self.inner.update(table, id, row)
    }
    fn update_cols(&self, table: &str, id: RowId, cols: &[(&str, Value)]) -> Result<()> {
        let _s = span(self.names.update);
        self.inner.update_cols(table, id, cols)
    }
    fn delete(&self, table: &str, id: RowId) -> Result<()> {
        let _s = span(self.names.delete);
        self.inner.delete(table, id)
    }
    fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
        let _s = span(self.names.select);
        let rows = self.inner.select(table, pred)?;
        self.counts
            .rows_returned
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }
    fn select_ordered(
        &self,
        table: &str,
        pred: &Predicate,
        order_col: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> Result<Vec<(RowId, Row)>> {
        let _s = span(self.names.select);
        let rows = self
            .inner
            .select_ordered(table, pred, order_col, descending, limit)?;
        self.counts
            .rows_returned
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }
    fn join(
        &self,
        left: &str,
        left_col: &str,
        left_pred: &Predicate,
        right: &str,
        right_col: &str,
        right_pred: &Predicate,
    ) -> Result<Vec<(Row, Row)>> {
        let _s = span(self.names.other);
        self.inner
            .join(left, left_col, left_pred, right, right_col, right_pred)
    }
    fn sum_int(&self, table: &str, pred: &Predicate, col: &str) -> Result<i64> {
        let _s = span(self.names.other);
        self.inner.sum_int(table, pred, col)
    }
    fn count(&self, table: &str, pred: &Predicate) -> Result<usize> {
        let _s = span(self.names.other);
        self.inner.count(table, pred)
    }
}

impl<B: DocBackend> DocBackend for TracedBackend<B> {
    fn engine_kind(&self) -> EngineKind {
        self.inner.engine_kind()
    }
    fn shards(&self) -> usize {
        self.inner.shards()
    }
    fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.inner.create_table(schema)
    }
    fn with_txn_dyn(&self, f: &mut dyn FnMut(&dyn DocTxn) -> Result<()>) -> Result<()> {
        let _txn = span(self.names.txn);
        self.inner.with_txn_dyn(&mut |t| {
            let _closure = span(CLOSURE);
            f(&TracedTxn {
                inner: t,
                names: self.names,
                counts: &self.counts,
            })
        })
    }
    fn snapshot(&self) -> Result<Snapshot> {
        self.inner.snapshot()
    }
    fn heap_bytes(&self, table: &str) -> Result<usize> {
        self.inner.heap_bytes(table)
    }
    fn checkpoint(&self) -> Result<Option<wal::Lsn>> {
        self.inner.checkpoint()
    }
    fn as_engine(&self) -> Option<&AnyEngine> {
        self.inner.as_engine()
    }
}

/// A [`WalSink`] that records a span around every call into the sink
/// it wraps.
pub struct TracedSink {
    inner: Arc<dyn WalSink>,
}

impl TracedSink {
    /// Wrap whatever sink `engine` logs to now.
    pub fn install(engine: &AnyEngine) {
        if let Some(inner) = engine.wal_sink() {
            engine.set_wal_sink(Some(Arc::new(TracedSink { inner })));
        }
    }
}

impl WalSink for TracedSink {
    fn on_op(&self, txn: relstore::lock::TxnId, op: RowOp<'_>) -> Result<u64> {
        let _s = span("wal.on_op");
        self.inner.on_op(txn, op)
    }
    fn on_commit(&self, txn: relstore::lock::TxnId) -> Result<()> {
        let _s = span("wal.on_commit");
        self.inner.on_commit(txn)
    }
    fn on_abort(&self, txn: relstore::lock::TxnId) {
        let _s = span("wal.on_abort");
        self.inner.on_abort(txn);
    }
    fn on_create_table(&self, schema: &TableSchema) -> Result<()> {
        self.inner.on_create_table(schema)
    }
}

// ------------------------------------------------------------- analysis

/// Self time of every span: its duration minus the part covered by its
/// direct children (children of one span never overlap: each thread
/// opens and closes spans in stack order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// What one span costs its parent: measured by opening and closing
/// empty child spans under one parent and reading the parent's self
/// time per child.
pub fn span_overhead_ns() -> f64 {
    const N: usize = 50_000;
    start_thread();
    {
        let _p = span("bench.calibrate");
        for _ in 0..N {
            let _c = span("bench.calibrate.child");
        }
    }
    let spans = finish_thread();
    self_times(&spans)[0] as f64 / N as f64
}

/// Per-layer attribution of the verbs of one class (`read`, `write` or
/// one verb name).
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub verbs: u64,
    /// Sum of verb spans.
    pub total_ns: u64,
    /// Layer → self time, the tracer's own cost taken out.
    pub layers: BTreeMap<&'static str, f64>,
    /// The tracer's own cost: child spans × per-span overhead.
    pub unattributed_ns: f64,
}

impl Attribution {
    pub fn unattributed_share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.unattributed_ns / self.total_ns as f64
        }
    }
}

/// Attribute every verb's span tree to layers. `class_of` names the
/// classes a root span counts under (by its tape index).
pub fn attribute(
    threads: &[Vec<Span>],
    overhead_ns: f64,
    mut classes_of: impl FnMut(usize, &Span) -> Vec<&'static str>,
) -> BTreeMap<&'static str, Attribution> {
    let mut out: BTreeMap<&'static str, Attribution> = BTreeMap::new();
    for (thread, spans) in threads.iter().enumerate() {
        let own = self_times(spans);
        let mut children = vec![0u32; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += 1;
            }
        }
        // Root of every span: parents precede children in the vector.
        let mut root = vec![0u32; spans.len()];
        for s in spans {
            root[s.id as usize] = if s.parent == NO_PARENT {
                s.id
            } else {
                root[s.parent as usize]
            };
        }
        let mut classes: BTreeMap<u32, Vec<&'static str>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent == NO_PARENT) {
            let cs = classes_of(thread, s);
            for c in &cs {
                let a = out.entry(c).or_default();
                a.verbs += 1;
                a.total_ns += s.dur();
            }
            classes.insert(s.id, cs);
        }
        for s in spans {
            let taken =
                (f64::from(children[s.id as usize]) * overhead_ns).min(own[s.id as usize] as f64);
            let layer_ns = own[s.id as usize] as f64 - taken;
            for c in &classes[&root[s.id as usize]] {
                let a = out.get_mut(c).expect("class entered at its root");
                *a.layers.entry(s.layer()).or_insert(0.0) += layer_ns;
                a.unattributed_ns += taken;
            }
        }
    }
    out
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(threads: &[Vec<Span>], name: &str) -> Vec<u64> {
    threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Per span named `txn`: its duration minus its `core.closure`
/// children — begin, commit and retry bookkeeping.
pub fn commit_times(threads: &[Vec<Span>], txn: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for spans in threads {
        let mut rest: BTreeMap<u32, u64> = spans
            .iter()
            .filter(|s| s.name == txn)
            .map(|s| (s.id, s.dur()))
            .collect();
        for s in spans.iter().filter(|s| s.name == CLOSURE) {
            if let Some(r) = rest.get_mut(&s.parent) {
                *r = r.saturating_sub(s.dur());
            }
        }
        out.extend(rest.into_values());
    }
    out
}

/// Per verb (root span): the self time of its spans in `layer`.
pub fn layer_self_per_verb(threads: &[Vec<Span>], layer: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for spans in threads {
        let own = self_times(spans);
        let mut acc: BTreeMap<u32, u64> = BTreeMap::new();
        let mut root = vec![0u32; spans.len()];
        for s in spans {
            root[s.id as usize] = if s.parent == NO_PARENT {
                acc.insert(s.id, 0);
                s.id
            } else {
                root[s.parent as usize]
            };
            if s.layer() == layer {
                *acc.get_mut(&root[s.id as usize]).expect("root seen first") += own[s.id as usize];
            }
        }
        out.extend(acc.into_values());
    }
    out
}

/// `out/benchmark/trace-<workload>.jsonl`: one span per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    /// verb 0..100 ─ txn 10..90 ─ closure 20..70 ─ select 30..50
    ///                         └ (commit: 70..90)   └ wal 55..65
    fn tree() -> Vec<Span> {
        vec![
            sp(0, NO_PARENT, "core.verb", 0, 100),
            sp(1, 0, "relstore.txn", 10, 90),
            sp(2, 1, "core.closure", 20, 70),
            sp(3, 2, "relstore.select", 30, 50),
            sp(4, 2, "wal.on_op", 55, 65),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_times(&tree()), vec![20, 30, 20, 20, 10]);
    }

    #[test]
    fn layers_plus_unattributed_equal_the_verb_span() {
        let threads = vec![tree()];
        let by = attribute(&threads, 2.0, |_, _| vec!["write"]);
        let a = &by["write"];
        assert_eq!((a.verbs, a.total_ns), (1, 100));
        // verb has 1 child, txn 1, closure 2: 4 spans' worth of tracer.
        assert_eq!(a.unattributed_ns, 8.0);
        assert_eq!(a.layers["core"], 20.0 - 2.0 + 20.0 - 4.0);
        assert_eq!(a.layers["relstore"], 30.0 - 2.0 + 20.0);
        assert_eq!(a.layers["wal"], 10.0);
        let sum: f64 = a.layers.values().sum::<f64>() + a.unattributed_ns;
        assert_eq!(sum, 100.0);
        assert_eq!(commit_times(&threads, "relstore.txn"), vec![30]);
        assert_eq!(layer_self_per_verb(&threads, "core"), vec![40]);
        assert_eq!(durations(&threads, "relstore.select"), vec![20]);
    }

    #[test]
    fn recorder_nests_spans_in_stack_order() {
        start_thread();
        set_req(9);
        {
            let _a = span("core.verb");
            let _b = span("relstore.txn");
        }
        {
            let _c = span("core.verb");
        }
        let spans = finish_thread();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![NO_PARENT, 0, NO_PARENT]
        );
        assert!(spans.iter().all(|s| s.req == 9 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Not recording: spans are no-ops.
        let _x = span("core.verb");
        assert!(finish_thread().is_empty());
    }
}
