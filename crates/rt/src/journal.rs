//! The runtime journal: every decision the runtime takes — a
//! degradation, a straggler rescue, a peer copy, an integrity event, a
//! pipelined piece, an adaptive profile — appended to one list in the
//! order it was taken (see [`Runtime::journal`]).
//!
//! Recording goes through one function (public as
//! [`Scope::record`](crate::Scope::record)), which also mirrors the
//! decisions that mark the timeline as zero-length marker spans:
//! degradations on the device's compute lane (the host lane for a
//! spill), rescues on the rescuer's compute lane, integrity events as a
//! `Verify` marker plus a `Heal` marker when healed.
//!
//! [`Runtime::journal`]: crate::Runtime::journal

use spread_sim::SimTime;
use spread_trace::{ConstructProfile, Lane, SpanKind};

use crate::integrity::{IntegrityAction, IntegrityEvent};
use crate::overlap::OverlapRecord;
use crate::runtime::{DegradationEvent, DegradationKind, Inner, PeerCopyRecord, RescueRecord};

/// One runtime decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A rung of the memory-pressure ladder fired.
    Degraded(DegradationEvent),
    /// A straggling piece was speculatively re-executed on a sibling;
    /// the commit gate fills in `winner`/`commits` in place.
    Rescue(RescueRecord),
    /// A planned device-to-device copy; `diverted` flips in place when
    /// the copy was replayed over the host path.
    PeerCopy(PeerCopyRecord),
    /// A digest mismatch caught at a trust boundary.
    Integrity(IntegrityEvent),
    /// A completed pipelined (`spread_overlap`) piece.
    Overlap(OverlapRecord),
    /// A completed `spread_schedule(auto)` launch.
    Profile(ConstructProfile),
}

/// A record type carried by one [`Event`] variant: the type argument of
/// [`Runtime::events`](crate::Runtime::events).
pub trait JournalRecord: Clone {
    /// The record inside `event`, when `event` is this type's variant.
    fn of(event: &Event) -> Option<&Self>;
}

macro_rules! journal_records {
    ($($variant:ident($ty:ty)),* $(,)?) => {$(
        impl JournalRecord for $ty {
            fn of(event: &Event) -> Option<&Self> {
                match event {
                    Event::$variant(r) => Some(r),
                    _ => None,
                }
            }
        }
    )*};
}

journal_records!(
    Degraded(DegradationEvent),
    Rescue(RescueRecord),
    PeerCopy(PeerCopyRecord),
    Integrity(IntegrityEvent),
    Overlap(OverlapRecord),
    Profile(ConstructProfile),
);

/// Append `event` to the journal, mirror it as its marker span(s) at
/// `now`, and return its journal index.
pub(crate) fn record(now: SimTime, inner: &mut Inner, event: Event) -> usize {
    let mark = |lane, kind, label: String, bytes| {
        inner.trace.record(lane, kind, label, now, now, bytes);
    };
    let range = |what: &str, start: usize, len: usize| format!("{what} [{start}..{})", start + len);
    match &event {
        Event::Degraded(ev) => {
            let device_lane = ev.device.map_or(Lane::Host, Lane::compute);
            let (lane, kind, bytes) = match ev.kind {
                DegradationKind::AdmissionShrunk => (device_lane, SpanKind::AdmissionShrink, 0),
                DegradationKind::ChunkSplit => (device_lane, SpanKind::ChunkSplit, 0),
                DegradationKind::Spilled => (Lane::Host, SpanKind::Spill, ev.bytes),
            };
            mark(
                lane,
                kind,
                range(&format!("{:?}", ev.kind), ev.start, ev.len),
                bytes,
            );
        }
        Event::Rescue(r) => mark(
            Lane::compute(r.to),
            SpanKind::Rescue,
            range("StragglerRescued", r.start, r.len),
            0,
        ),
        Event::Integrity(ev) => {
            let lane = Lane::compute(ev.device);
            let label = format!(
                "{:?} {:?} {} dev{}",
                ev.action, ev.boundary, ev.section, ev.device
            );
            mark(lane, SpanKind::Verify, label, 0);
            if ev.action == IntegrityAction::Healed {
                let s = ev.section;
                let label = range("CorruptionHealed", s.start, s.len);
                mark(lane, SpanKind::Heal, label, s.len as u64 * 8);
            }
        }
        Event::PeerCopy(_) | Event::Overlap(_) | Event::Profile(_) => {}
    }
    inner.journal.push(event);
    inner.journal.len() - 1
}
