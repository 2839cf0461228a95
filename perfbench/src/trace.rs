//! Spans and counts recorded at the layer boundaries of the program,
//! from outside it: every wrapper here implements one public trait of
//! the program, forwards **every** method (defaulted ones included, so
//! the traced program takes the same paths as the untraced one) and
//! records one span per call.
//!
//! | wrapper | trait | layer |
//! |---|---|---|
//! | [`TracedPlatform`] (client side) | `MarketplacePlatform` | `om_http` request as the client sees it |
//! | [`TracedPlatform`] (server side) | `MarketplacePlatform` | `om_marketplace` binding under the gateway |
//! | [`TracedBackend`] / [`TracedSession`] | `StateBackend` / `StateSession` | `om_storage` |
//! | [`TracedCheckpointStore`] | `CheckpointStore` | `om_dataflow` epoch checkpoints |
//! | [`TracedLog`] | `EventLog` | `om_log` ingress |
//! | [`TracedVfs`] / [`TracedFile`] | `Vfs` / `VfsFile` | `om_storage::vfs` device calls |
//!
//! A span carries a name, start, end, its parent (the innermost span
//! open on the same thread) and a request id shared with that parent; a
//! span opened with no parent starts a new request. Calls that hop
//! threads inside the program (in-memory HTTP transport, actor
//! mailboxes, dataflow workers) therefore start new requests: causal
//! links across threads need spans inside the program.

use om_common::config::BackendKind;
use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmResult};
use om_dataflow::{CheckpointSnapshot, CheckpointStore, StateDelta};
use om_log::{Entry, EventLog};
use om_marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind, RecoveryOutcome, UnwedgeOutcome,
};
use om_storage::vfs::{Vfs, VfsFile};
use om_storage::{StateBackend, StateSession, WriteBatch, WriteOp};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Enclosing span on the same thread, 0 for none.
    pub parent: u64,
    pub request: u64,
    /// A size the call carried: bytes written, rows scanned, entries
    /// checkpointed (0 where the call has none).
    pub arg: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub arg: u64,
}

impl SpanTotals {
    /// Mean duration of one call in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

thread_local! {
    /// Open spans of this thread: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The in-memory span recorder shared by every wrapper of one run.
pub struct Tracer {
    origin: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Bytes handed to `StateBackend` writes while recording, readable
    /// live so clients can stamp each completed operation with it.
    commit_bytes: AtomicU64,
    /// Bytes of state in checkpointed epochs while recording.
    checkpoint_bytes: AtomicU64,
    /// `StateBackend` write calls that returned an error while recording.
    commit_errors: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            commit_bytes: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            commit_errors: AtomicU64::new(0),
        })
    }

    /// Starts (or stops) recording. Spans are only kept for calls that
    /// start while recording is on.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn commit_bytes(&self) -> u64 {
        self.commit_bytes.load(Ordering::Relaxed)
    }

    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes.load(Ordering::Relaxed)
    }

    pub fn commit_errors(&self) -> u64 {
        self.commit_errors.load(Ordering::Relaxed)
    }

    /// Opens a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.recording.load(Ordering::Relaxed) {
            return SpanGuard {
                tracer: self,
                span: None,
                started: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, request) = open.last().copied().unwrap_or((0, id));
            open.push((id, request));
            (parent, request)
        });
        let started = Instant::now();
        SpanGuard {
            tracer: self,
            span: Some(Span {
                name,
                start_ns: started.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                id,
                parent,
                request,
                arg: 0,
            }),
            started: Some(started),
        }
    }

    /// Removes and returns every recorded span, ordered by start.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock());
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Totals per span name.
    pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.end_ns - s.start_ns;
            t.arg += s.arg;
        }
        out
    }

    /// Writes spans as tab-separated lines: name, start ns, end ns, id,
    /// parent, request, arg.
    pub fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\trequest\targ")?;
        for s in spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request, s.arg
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Option<Span>,
    started: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Sets the span's size argument.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(span) = &mut self.span {
            span.arg = arg;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(mut span), Some(started)) = (self.span.take(), self.started) else {
            return;
        };
        span.end_ns = span.start_ns + started.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        self.tracer.spans.lock().push(span);
    }
}

fn write_bytes(ops: &[WriteOp]) -> u64 {
    ops.iter()
        .map(|op| (op.key.len() + op.value.as_ref().map_or(0, Vec::len)) as u64)
        .sum()
}

// ---- om_marketplace / om_http ---------------------------------------------

/// Span names of one side of the gateway, per platform method.
pub struct PlatformSpanNames {
    pub ingest: &'static str,
    pub checkout: &'static str,
    pub add_to_cart: &'static str,
    pub price_update: &'static str,
    pub product_delete: &'static str,
    pub update_delivery: &'static str,
    pub seller_dashboard: &'static str,
}

/// Client side: one span per HTTP request the benchmark sends.
pub const HTTP_SPANS: PlatformSpanNames = PlatformSpanNames {
    ingest: "http.ingest",
    checkout: "http.checkout",
    add_to_cart: "http.add_to_cart",
    price_update: "http.price_update",
    product_delete: "http.product_delete",
    update_delivery: "http.update_delivery",
    seller_dashboard: "http.seller_dashboard",
};

/// Server side: one span per binding call the gateway makes.
pub const BINDING_SPANS: PlatformSpanNames = PlatformSpanNames {
    ingest: "binding.ingest",
    checkout: "binding.checkout",
    add_to_cart: "binding.add_to_cart",
    price_update: "binding.price_update",
    product_delete: "binding.product_delete",
    update_delivery: "binding.delivery",
    seller_dashboard: "binding.dashboard",
};

/// A `MarketplacePlatform` that times every call into `inner`.
pub struct TracedPlatform {
    inner: Arc<dyn MarketplacePlatform>,
    tracer: Arc<Tracer>,
    names: &'static PlatformSpanNames,
}

impl TracedPlatform {
    pub fn new(
        inner: Arc<dyn MarketplacePlatform>,
        tracer: Arc<Tracer>,
        names: &'static PlatformSpanNames,
    ) -> Self {
        Self {
            inner,
            tracer,
            names,
        }
    }
}

impl MarketplacePlatform for TracedPlatform {
    fn kind(&self) -> PlatformKind {
        self.inner.kind()
    }

    fn backend(&self) -> Option<BackendKind> {
        self.inner.backend()
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        let _span = self.tracer.span(self.names.ingest);
        self.inner.ingest_seller(seller)
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        let _span = self.tracer.span(self.names.ingest);
        self.inner.ingest_customer(customer)
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        let _span = self.tracer.span(self.names.ingest);
        self.inner.ingest_product(product, initial_stock)
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let _span = self.tracer.span(self.names.checkout);
        self.inner.checkout(request)
    }

    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        let _span = self.tracer.span(self.names.add_to_cart);
        self.inner.add_to_cart(customer, item)
    }

    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        let _span = self.tracer.span(self.names.price_update);
        self.inner.price_update(seller, product, price)
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        let _span = self.tracer.span(self.names.product_delete);
        self.inner.product_delete(seller, product)
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        let _span = self.tracer.span(self.names.update_delivery);
        self.inner.update_delivery(max_sellers)
    }

    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let _span = self.tracer.span(self.names.seller_dashboard);
        self.inner.seller_dashboard(seller)
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.inner.snapshot()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
    }

    fn crash_and_recover(&self) -> Option<RecoveryOutcome> {
        self.inner.crash_and_recover()
    }

    fn is_wedged(&self) -> bool {
        self.inner.is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<UnwedgeOutcome>> {
        self.inner.unwedge()
    }
}

// ---- om_storage -------------------------------------------------------------

/// A `StateBackend` that times and sizes every call into `inner`.
/// Every write entry point (`put`, `delete`, their fallible forms,
/// `commit`, `commit_ops`, session writes) is a `storage.commit` span
/// carrying the bytes handed over; reads are `storage.read` spans
/// carrying the keys asked for; scans are `storage.scan` spans carrying
/// the rows returned.
pub struct TracedBackend {
    inner: Arc<dyn StateBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn StateBackend>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn write<R>(&self, bytes: u64, call: impl FnOnce() -> OmResult<R>) -> OmResult<R> {
        let mut span = self.tracer.span("storage.commit");
        span.set_arg(bytes);
        let result = call();
        drop(span);
        self.note_write(bytes, result.is_err());
        result
    }

    fn note_write(&self, bytes: u64, failed: bool) {
        if self.tracer.recording.load(Ordering::Relaxed) {
            self.tracer.commit_bytes.fetch_add(bytes, Ordering::Relaxed);
            if failed {
                self.tracer.commit_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl StateBackend for TracedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut span = self.tracer.span("storage.read");
        span.set_arg(1);
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) {
        let bytes = (key.len() + value.len()) as u64;
        let mut span = self.tracer.span("storage.commit");
        span.set_arg(bytes);
        self.inner.put(key, value);
        drop(span);
        self.note_write(bytes, false);
    }

    fn delete(&self, key: &[u8]) {
        let bytes = key.len() as u64;
        let mut span = self.tracer.span("storage.commit");
        span.set_arg(bytes);
        self.inner.delete(key);
        drop(span);
        self.note_write(bytes, false);
    }

    fn try_put(&self, key: &[u8], value: &[u8]) -> OmResult<()> {
        self.write((key.len() + value.len()) as u64, || {
            self.inner.try_put(key, value)
        })
    }

    fn try_delete(&self, key: &[u8]) -> OmResult<()> {
        self.write(key.len() as u64, || self.inner.try_delete(key))
    }

    fn is_wedged(&self) -> bool {
        self.inner.is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<u64>> {
        self.inner.unwedge()
    }

    fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let mut span = self.tracer.span("storage.read");
        span.set_arg(keys.len() as u64);
        self.inner.get_many(keys)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut span = self.tracer.span("storage.scan");
        let rows = self.inner.scan_prefix(prefix);
        span.set_arg(rows.len() as u64);
        rows
    }

    fn commit(&self, batch: WriteBatch) -> OmResult<usize> {
        self.write(write_bytes(batch.ops()), || self.inner.commit(batch))
    }

    fn commit_ops(&self, ops: &[WriteOp]) -> OmResult<usize> {
        self.write(write_bytes(ops), || self.inner.commit_ops(ops))
    }

    fn session(&self) -> Box<dyn StateSession + '_> {
        Box::new(TracedSession {
            inner: self.inner.session(),
            backend: self,
        })
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters()
    }
}

/// A read-your-writes session of a [`TracedBackend`].
pub struct TracedSession<'a> {
    inner: Box<dyn StateSession + 'a>,
    backend: &'a TracedBackend,
}

impl StateSession for TracedSession<'_> {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let mut span = self.backend.tracer.span("storage.read");
        span.set_arg(1);
        self.inner.get(key)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        let bytes = (key.len() + value.len()) as u64;
        let mut span = self.backend.tracer.span("storage.commit");
        span.set_arg(bytes);
        self.inner.put(key, value);
        drop(span);
        self.backend.note_write(bytes, false);
    }

    fn delete(&mut self, key: &[u8]) {
        let bytes = key.len() as u64;
        let mut span = self.backend.tracer.span("storage.commit");
        span.set_arg(bytes);
        self.inner.delete(key);
        drop(span);
        self.backend.note_write(bytes, false);
    }

    fn fallbacks(&self) -> u64 {
        self.inner.fallbacks()
    }
}

// ---- om_dataflow ------------------------------------------------------------

/// A `CheckpointStore` that times every epoch commit
/// (`dataflow.checkpoint`, carrying the dirty entries) and sums the
/// state bytes each epoch hands over.
pub struct TracedCheckpointStore {
    inner: Arc<dyn CheckpointStore>,
    tracer: Arc<Tracer>,
}

impl TracedCheckpointStore {
    pub fn new(inner: Arc<dyn CheckpointStore>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl CheckpointStore for TracedCheckpointStore {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn backend_kind(&self) -> Option<BackendKind> {
        self.inner.backend_kind()
    }

    fn commit_epoch(&self, epoch: u64, offsets: &[u64], dirty: Vec<StateDelta>) -> OmResult<()> {
        let bytes: u64 = dirty
            .iter()
            .map(|d| d.value.as_ref().map_or(0, Vec::len) as u64)
            .sum();
        let mut span = self.tracer.span("dataflow.checkpoint");
        span.set_arg(dirty.len() as u64);
        let result = self.inner.commit_epoch(epoch, offsets, dirty);
        drop(span);
        if self.tracer.recording.load(Ordering::Relaxed) {
            self.tracer
                .checkpoint_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
        result
    }

    fn get_state(&self, partition: usize, fn_type: &str, key: u64) -> Option<Vec<u8>> {
        self.inner.get_state(partition, fn_type, key)
    }

    fn load(&self) -> OmResult<Option<CheckpointSnapshot>> {
        self.inner.load()
    }

    fn commits(&self) -> u64 {
        self.inner.commits()
    }

    fn backend_counters(&self) -> BTreeMap<String, u64> {
        self.inner.backend_counters()
    }

    fn is_wedged(&self) -> bool {
        self.inner.is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<u64>> {
        self.inner.unwedge()
    }
}

// ---- om_log -----------------------------------------------------------------

/// An `EventLog` that times every append (`log.append`, including any
/// group-flush wait inside it).
pub struct TracedLog<T> {
    inner: Arc<dyn EventLog<T>>,
    tracer: Arc<Tracer>,
}

impl<T> TracedLog<T> {
    pub fn new(inner: Arc<dyn EventLog<T>>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<T> EventLog<T> for TracedLog<T> {
    fn partition_count(&self) -> usize {
        self.inner.partition_count()
    }

    fn append_raw(&self, partition: usize, producer: u64, seq: u64, payload: T) -> OmResult<u64> {
        let _span = self.tracer.span("log.append");
        self.inner.append_raw(partition, producer, seq, payload)
    }

    fn read_from(&self, partition: usize, offset: u64, max: usize) -> Vec<Entry<T>> {
        self.inner.read_from(partition, offset, max)
    }

    fn end_offset(&self, partition: usize) -> u64 {
        self.inner.end_offset(partition)
    }

    fn max_seq(&self, partition: usize) -> u64 {
        self.inner.max_seq(partition)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn duplicate_count(&self) -> u64 {
        self.inner.duplicate_count()
    }
}

// ---- om_storage::vfs --------------------------------------------------------

/// A `Vfs` whose files time every write (`vfs.write`, carrying bytes),
/// data sync (`vfs.sync`) and directory sync (`vfs.dir_sync`).
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TracedVfs {
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TracedFile {
            inner: file?,
            tracer: self.tracer.clone(),
        }))
    }
}

impl Vfs for TracedVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.create(path))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_append(path))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_write(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut span = self.tracer.span("vfs.write");
        span.set_arg(bytes.len() as u64);
        self.inner.write_file(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn dir_sync(&self, path: &Path) -> io::Result<()> {
        let _span = self.tracer.span("vfs.dir_sync");
        self.inner.dir_sync(path)
    }
}

/// A file opened through [`TracedVfs`].
pub struct TracedFile {
    inner: Box<dyn VfsFile>,
    tracer: Arc<Tracer>,
}

impl VfsFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut span = self.tracer.span("vfs.write");
        span.set_arg(buf.len() as u64);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let _span = self.tracer.span("vfs.sync");
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let _span = self.tracer.span("vfs.sync");
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}
