//! The `spread_integrity(…)` heal guard: construct re-execution after a
//! caught corruption.
//!
//! The runtime ([`spread_rt::integrity`]) owns detection — CRC32C
//! digests taken at the payload source, re-verified at the staged-commit
//! drain and the peer-copy receive. Under
//! [`IntegrityMode::Heal`](spread_rt::IntegrityMode::Heal) a commit-side
//! mismatch discards the tainted staged bytes and hands the construct
//! back through the recovery machinery; *this* module is the handler a
//! healing `target spread` registers for each per-chunk construct. It
//! rebuilds the piece as a fresh enter→kernel→exit from the unharmed
//! host image:
//!
//! * on the **same device** when it is still trusted — one flipped bit
//!   is not a diagnosis, and the mismatch streak in the runtime's
//!   circuit breaker decides when it becomes one;
//! * on a **surviving sibling** when the breaker has quarantined the
//!   offender (quarantine marks the device lost, so the loss-shaped
//!   recovery below applies).
//!
//! The healer also subsumes `spread_resilience(redistribute)` when both
//! clauses are given: the runtime keeps one recovery registration per
//! task, so a single handler covers genuine device loss and integrity
//! violations alike. Without `redistribute`, a genuine loss still
//! poisons the runtime — healing routes around lies, not around dead
//! hardware.

use std::rc::Rc;

use spread_rt::{ConstructIds, Event, IntegrityAction, KernelSpec, RtError, Scope, TaskId};
use spread_trace::{Lane, SpanKind};

use crate::chunk::ChunkCtx;
use crate::resilience::Ledger;
use crate::target_spread::TargetSpread;

/// Shared heal state for one `spread_integrity(heal)` launch.
pub(crate) struct Healer {
    spread: Rc<TargetSpread>,
    kernel: KernelSpec,
    /// Whether `spread_resilience(redistribute)` was also given: genuine
    /// device loss re-places the chunk instead of poisoning the runtime.
    redistribute: bool,
    /// Constructs placed per device; re-routed redos serialize after
    /// them, the same gap-condition-by-ordering rule the resilience
    /// coordinator uses.
    ledger: Ledger,
}

impl Healer {
    pub(crate) fn new(
        spread: Rc<TargetSpread>,
        kernel: KernelSpec,
        redistribute: bool,
    ) -> Rc<Self> {
        Rc::new(Healer {
            spread,
            kernel,
            redistribute,
            ledger: Ledger::default(),
        })
    }
}

/// Put a per-chunk construct under the healer's protection: remember its
/// exit for serialization and register the integrity recovery handler
/// for all three phases (which also covers the loss arm — quarantine
/// marks the device lost and must land here too).
pub(crate) fn guard(
    scope: &mut Scope<'_>,
    healer: &Rc<Healer>,
    device: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
) {
    healer.ledger.place(device, ids.exit);
    let healer = Rc::clone(healer);
    scope.on_task_integrity(&ids.all(), device, move |s, faulted, err| {
        heal(s, &healer, device, start, len, ids, faulted, err);
    });
}

/// The heal handler: pick where the redo goes, clear the dead
/// construct's traces, rebuild the chunk from the host image, and chain
/// the original construct's completion behind the redo's exit.
#[allow(clippy::too_many_arguments)]
fn heal(
    s: &mut Scope<'_>,
    healer: &Rc<Healer>,
    home: u32,
    start: usize,
    len: usize,
    ids: ConstructIds,
    faulted: TaskId,
    err: RtError,
) {
    let corrupt = matches!(err, RtError::IntegrityViolation { .. });
    // A quarantine looks like a loss to every other construct on the
    // device; the Quarantined event (recorded before the runtime marks
    // the device lost) tells those victims apart from real hardware
    // death.
    let quarantined = |s: &Scope<'_>| {
        s.journal().iter().any(|e| {
            matches!(e, Event::Integrity(e)
                if e.device == home && e.action == IntegrityAction::Quarantined)
        })
    };
    let target = if corrupt && !s.is_device_lost(home) {
        // The commit drain caught rot but the breaker still trusts the
        // device: redo in place from the unharmed host image.
        Some(home)
    } else if corrupt || healer.redistribute || quarantined(s) {
        // Quarantined (corrupt + lost, or a sibling chunk evicted by
        // the quarantine) — or a genuine loss under composed
        // redistribution. Either way: route to a survivor.
        healer.ledger.pick_survivor(s, healer.spread.device_list())
    } else {
        // Genuine device loss without spread_resilience(redistribute):
        // healing covers lies, not dead hardware — fail-stop.
        None
    };
    let Some(target) = target else {
        s.fail(err);
        return;
    };
    // The faulted drain's staged writes were discarded; erase the
    // construct's footprints so the redo can re-map the same sections
    // without tripping the race detector, and neutralize phases that
    // never ran (the loss arm can catch the construct pre-kernel).
    s.forgive_task_footprints(faulted);
    for id in ids.all() {
        if id != faulted {
            s.forgive_task_footprints(id);
            s.neutralize_task(id);
        }
    }
    let now = s.now();
    s.trace().record(
        Lane::compute(target),
        SpanKind::Heal,
        format!(
            "heal-redo [{start}..{}) dev{home}->dev{target}",
            start + len
        ),
        now,
        now,
        0,
    );
    // An in-place redo replaces a piece whose mappings were already
    // compatible with every sibling on its device — no serialization
    // needed (and waiting on the device's other exits would deadlock:
    // this construct's own exit is among them). A *re-routed* redo
    // serializes after every construct already placed on the target,
    // re-establishing the §V-B gap condition by ordering.
    let preds = if target == home {
        Vec::new()
    } else {
        healer.ledger.exits_on(target)
    };
    let c = ChunkCtx::new(start, len);
    let t = healer.spread.build_target(target, c).after(preds);
    match t.parallel_for_phases(s, start..start + len, healer.kernel.clone()) {
        Ok(redo) => {
            // The redo is itself checked and guarded: a second flip
            // heals again, and a streak walks the breaker to quarantine.
            guard(s, healer, target, start, len, redo);
            // Only once the redo's exit has landed clean bytes on the
            // host may the original construct complete and release its
            // downstream dependences.
            s.task_chained(
                format!("spread-heal-done(dev{target})"),
                vec![redo.exit],
                None,
                move |s| s.force_complete(faulted),
            );
        }
        Err(e) => s.fail(e),
    }
}
