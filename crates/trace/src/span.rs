//! Spans and the trace recorder.
//!
//! Every timed activity in the simulation (a DMA copy, a kernel execution,
//! a host task, …) is recorded as a [`Span`]: an interval of virtual time on
//! a [`Lane`]. Lanes mirror the rows of an `nsys` timeline — one row per
//! device engine plus a host row.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::time::SimTime;

/// Identifier of a recorded span (dense, in recording order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// Which hardware engine of a device a span occupies.
///
/// Real GPUs expose separate copy engines for each direction plus compute
/// queues; the paper's Figure 3 legends ("green and red" transfers, "blue"
/// kernels) correspond to exactly these three.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EngineKind {
    /// Host-to-device copy engine.
    CopyIn,
    /// Device-to-host copy engine.
    CopyOut,
    /// Kernel execution engine.
    Compute,
    /// Peer (device-to-device) copy engine — pulls data from a sibling
    /// device over the NVLink/switch fabric. Spans live on the
    /// *destination* device's peer lane.
    PeerCopy,
}

impl EngineKind {
    /// Short label used by the renderer.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::CopyIn => "H2D",
            EngineKind::CopyOut => "D2H",
            EngineKind::Compute => "KRN",
            EngineKind::PeerCopy => "P2P",
        }
    }
}

/// A timeline row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// The host CPU (task scheduling, host tasks).
    Host,
    /// An engine of a particular device.
    Device {
        /// Physical device id.
        device: u32,
        /// Engine within the device.
        engine: EngineKind,
    },
}

impl Lane {
    /// Convenience constructor for a device compute lane.
    pub fn compute(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::Compute,
        }
    }

    /// Convenience constructor for a device host-to-device copy lane.
    pub fn copy_in(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::CopyIn,
        }
    }

    /// Convenience constructor for a device device-to-host copy lane.
    pub fn copy_out(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::CopyOut,
        }
    }

    /// Convenience constructor for a device peer-copy lane (the
    /// *destination* side of a device-to-device transfer).
    pub fn peer(device: u32) -> Lane {
        Lane::Device {
            device,
            engine: EngineKind::PeerCopy,
        }
    }

    /// The device id, if this is a device lane.
    pub fn device(self) -> Option<u32> {
        match self {
            Lane::Host => None,
            Lane::Device { device, .. } => Some(device),
        }
    }

    /// The engine kind, if this is a device lane.
    pub fn engine(self) -> Option<EngineKind> {
        match self {
            Lane::Host => None,
            Lane::Device { engine, .. } => Some(engine),
        }
    }

    /// Human-readable row header, e.g. `GPU2 H2D` or `host`.
    pub fn header(self) -> String {
        match self {
            Lane::Host => "host".to_string(),
            Lane::Device { device, engine } => format!("GPU{} {}", device, engine.label()),
        }
    }
}

/// Semantic category of a span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanKind {
    /// Host-to-device memory transfer.
    TransferIn,
    /// Device-to-host memory transfer.
    TransferOut,
    /// Device-to-device peer transfer (recorded on the destination
    /// device's peer lane; the label carries the source).
    PeerCopy,
    /// Kernel execution.
    Kernel,
    /// Host-side task body.
    HostTask,
    /// Synchronization wait (taskgroup/taskwait drain).
    Sync,
    /// An injected fault surfacing on an engine (zero-length marker).
    Fault,
    /// A retry backoff window after a transient fault.
    Retry,
    /// Recovery work: a lost device's chunk replayed on a survivor.
    Redistribute,
    /// Admission control modified a chunk's placement before launch
    /// (`admission_shrunk`).
    AdmissionShrink,
    /// A chunk piece produced by memory-pressure splitting
    /// (`chunk_split`).
    ChunkSplit,
    /// A chunk executed through the host staging path (`spilled_bytes`
    /// in the span's `bytes` field).
    Spill,
    /// A straggling chunk speculatively re-executed on a healthy
    /// sibling (straggler rescue).
    Rescue,
    /// An end-to-end digest verification failing at a trust boundary
    /// (zero-length marker: a silent corruption was caught).
    Verify,
    /// Corruption healed: the affected piece re-executed from the
    /// unharmed host image (or re-fetched over the host path).
    Heal,
    /// Anything else (allocation bookkeeping, …).
    Other,
}

impl SpanKind {
    /// Single-character glyph used by the ASCII Gantt renderer.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::TransferIn => '>',
            SpanKind::TransferOut => '<',
            SpanKind::PeerCopy => '^',
            SpanKind::Kernel => '#',
            SpanKind::HostTask => '~',
            SpanKind::Sync => '|',
            SpanKind::Fault => 'X',
            SpanKind::Retry => 'r',
            SpanKind::Redistribute => 'R',
            SpanKind::AdmissionShrink => 'a',
            SpanKind::ChunkSplit => '/',
            SpanKind::Spill => 's',
            SpanKind::Rescue => '!',
            SpanKind::Verify => '?',
            SpanKind::Heal => 'H',
            SpanKind::Other => '.',
        }
    }

    /// True for any memory transfer (host-routed or peer).
    pub fn is_transfer(self) -> bool {
        matches!(
            self,
            SpanKind::TransferIn | SpanKind::TransferOut | SpanKind::PeerCopy
        )
    }
}

/// One recorded activity: `[start, end)` on a lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier (dense, recording order).
    pub id: SpanId,
    /// Timeline row.
    pub lane: Lane,
    /// Semantic category.
    pub kind: SpanKind,
    /// Free-form label ("forces", "enter A[0:100]", …).
    pub label: String,
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Bytes moved, for transfers.
    pub bytes: u64,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> crate::time::SimDuration {
        self.end - self.start
    }

    /// True if the span intersects the half-open window `[t0, t1)`.
    pub fn overlaps_window(&self, t0: SimTime, t1: SimTime) -> bool {
        self.start < t1 && self.end > t0
    }
}

/// Collector of spans: one shared, append-only span vector.
///
/// Cheap to clone (an `Rc` underneath); the simulator and every
/// subsystem hold clones and push completed spans from the single
/// simulation thread. Recording can be disabled wholesale so benchmark
/// runs that do not need traces pay only a flag check. A span's
/// [`SpanId`] is its position in recording order.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Rc<Inner>,
}

struct Inner {
    spans: RefCell<Vec<Span>>,
    enabled: Cell<bool>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A new, enabled recorder.
    pub fn new() -> Self {
        TraceRecorder {
            inner: Rc::new(Inner {
                spans: RefCell::new(Vec::new()),
                enabled: Cell::new(true),
            }),
        }
    }

    /// A recorder that discards everything.
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.set(enabled);
    }

    /// Whether spans are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Record a completed span. Returns its id (or a dummy id when
    /// disabled).
    pub fn record(
        &self,
        lane: Lane,
        kind: SpanKind,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        if !self.is_enabled() {
            return SpanId(u64::MAX);
        }
        debug_assert!(end >= start, "span ends before it starts");
        let label = label.into();
        let mut spans = self.inner.spans.borrow_mut();
        let id = SpanId(spans.len() as u64);
        spans.push(Span {
            id,
            lane,
            kind,
            label,
            start,
            end,
            bytes,
        });
        id
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.spans.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the recorded spans, sorted by start time, then id.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.inner.spans.borrow().clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Drop all recorded spans (ids restart from zero).
    pub fn clear(&self) {
        self.inner.spans.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn record_and_snapshot_sorted() {
        let rec = TraceRecorder::new();
        rec.record(Lane::Host, SpanKind::HostTask, "b", t(10), t(20), 0);
        rec.record(Lane::Host, SpanKind::HostTask, "a", t(0), t(5), 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "a");
        assert_eq!(snap[1].label, "b");
    }

    #[test]
    fn disabled_recorder_discards() {
        let rec = TraceRecorder::disabled();
        rec.record(Lane::Host, SpanKind::Other, "x", t(0), t(1), 0);
        assert!(rec.is_empty());
        rec.set_enabled(true);
        rec.record(Lane::Host, SpanKind::Other, "y", t(0), t(1), 0);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn clones_share_storage() {
        let rec = TraceRecorder::new();
        let rec2 = rec.clone();
        rec2.record(Lane::compute(0), SpanKind::Kernel, "k", t(0), t(1), 0);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ids_are_recording_positions_and_restart_after_clear() {
        let rec = TraceRecorder::new();
        let a = rec.record(Lane::Host, SpanKind::Other, "a", t(5), t(6), 0);
        let b = rec.record(Lane::Host, SpanKind::Other, "b", t(0), t(1), 0);
        assert_eq!((a, b), (SpanId(0), SpanId(1)));
        // Disabled recording hands out the dummy id and allocates none.
        rec.set_enabled(false);
        let x = rec.record(Lane::Host, SpanKind::Other, "x", t(0), t(1), 0);
        assert_eq!(x, SpanId(u64::MAX));
        rec.set_enabled(true);
        let c = rec.record(Lane::Host, SpanKind::Other, "c", t(0), t(1), 0);
        assert_eq!(c, SpanId(2));
        // Same start: the id breaks the tie.
        let snap = rec.snapshot();
        let order: Vec<&str> = snap.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(order, ["b", "c", "a"]);
        rec.clear();
        assert!(rec.is_empty());
        let again = rec.record(Lane::Host, SpanKind::Other, "again", t(0), t(1), 0);
        assert_eq!(again, SpanId(0));
    }

    #[test]
    fn window_overlap() {
        let rec = TraceRecorder::new();
        rec.record(Lane::Host, SpanKind::Other, "x", t(10), t(20), 0);
        let s = &rec.snapshot()[0];
        assert!(s.overlaps_window(t(0), t(11)));
        assert!(s.overlaps_window(t(19), t(100)));
        assert!(!s.overlaps_window(t(0), t(10))); // half-open: ends at start
        assert!(!s.overlaps_window(t(20), t(30)));
    }

    #[test]
    fn lane_headers() {
        assert_eq!(Lane::Host.header(), "host");
        assert_eq!(Lane::copy_in(2).header(), "GPU2 H2D");
        assert_eq!(Lane::copy_out(0).header(), "GPU0 D2H");
        assert_eq!(Lane::compute(3).header(), "GPU3 KRN");
        assert_eq!(Lane::peer(1).header(), "GPU1 P2P");
    }

    #[test]
    fn lane_accessors() {
        assert_eq!(Lane::Host.device(), None);
        assert_eq!(Lane::compute(1).device(), Some(1));
        assert_eq!(Lane::compute(1).engine(), Some(EngineKind::Compute));
        assert_eq!(Lane::peer(2).device(), Some(2));
        assert_eq!(Lane::peer(2).engine(), Some(EngineKind::PeerCopy));
        assert!(SpanKind::TransferIn.is_transfer());
        assert!(SpanKind::TransferOut.is_transfer());
        assert!(SpanKind::PeerCopy.is_transfer());
        assert!(!SpanKind::Kernel.is_transfer());
        assert!(!SpanKind::Fault.is_transfer());
    }

    #[test]
    fn fault_glyphs_are_distinct() {
        let glyphs = [
            SpanKind::Fault.glyph(),
            SpanKind::Retry.glyph(),
            SpanKind::Redistribute.glyph(),
            SpanKind::AdmissionShrink.glyph(),
            SpanKind::ChunkSplit.glyph(),
            SpanKind::Spill.glyph(),
            SpanKind::Rescue.glyph(),
            SpanKind::Verify.glyph(),
            SpanKind::Heal.glyph(),
            SpanKind::Kernel.glyph(),
            SpanKind::PeerCopy.glyph(),
            SpanKind::TransferIn.glyph(),
            SpanKind::TransferOut.glyph(),
        ];
        let set: std::collections::BTreeSet<char> = glyphs.into_iter().collect();
        assert_eq!(set.len(), glyphs.len());
    }
}
