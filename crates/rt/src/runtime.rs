//! The [`Runtime`]: simulator + devices + presence tables + task graph,
//! and the [`Scope`] through which programs issue directives.
//!
//! ## Blocking constructs and "recursive draining"
//!
//! The host program runs on the DES thread. A blocking construct
//! (`taskgroup`, `taskwait`, a directive without `nowait`) simply *drains*
//! the simulator — pops and executes events — until its wait condition
//! holds. Because host-task bodies execute inside simulator events and
//! receive a [`Scope`] of their own, a blocking construct inside a task
//! drains recursively: exactly the behaviour of a suspended OpenMP task
//! whose thread keeps scheduling other tasks. Everything stays
//! single-threaded and deterministic.
//!
//! ## Error model
//!
//! Mapping errors surface when the failing task *starts* in virtual time
//! (a `nowait` directive cannot fail at its pragma). The first error
//! poisons the runtime; every subsequent drain returns it.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use spread_devices::dma::{Direction, DmaOp};
use spread_devices::node::{DeviceHandle, Node};
use spread_devices::topology::Topology;
use spread_devices::{AllocId, DeviceMemory, FaultCtx};
use spread_sim::{
    FaultEventKind, FaultPlan, PlannedFault, RetryPolicy, SharedFlowNet, Simulator, TieBreak,
};
use spread_teams::TeamPool;
use spread_trace::{SimDuration, SimTime, Timeline, TraceRecorder};

use crate::error::RtError;
use crate::host::{HostArray, HostRegistry};
use crate::integrity::{IntegrityAction, IntegrityBoundary, IntegrityEvent, IntegrityMode};
use crate::journal::{self, Event, JournalRecord};
use crate::kernel::{self, KernelSpec, ResolvedArg};
use crate::map::{MapClause, MapType};
use crate::mapping::{EnterDecision, EntryKey, ExitDecision, MapConflict, PresenceTable};
use crate::section::Section;
use crate::task::{GroupId, RaceReport, TaskGraph, TaskId, TaskSpec};

/// Construction parameters for a [`Runtime`].
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Machine description.
    pub topology: Topology,
    /// Host threads that execute kernel bodies (the real parallelism of
    /// the `teams distribute parallel for` level).
    pub team_threads: usize,
    /// Default `num_teams` for kernels that don't specify one.
    pub default_num_teams: u32,
    /// Default threads per team.
    pub default_threads_per_team: u32,
    /// Record trace spans (disable for benchmark speed).
    pub trace: bool,
    /// Allocation backpressure: when true, an enter-mapping that cannot
    /// allocate device memory *waits* for the next release instead of
    /// failing (a pooled-allocator runtime). When false (default), it
    /// fails with [`RtError::OutOfMemory`] like a raw `cudaMalloc`.
    pub alloc_backpressure: bool,
    /// How the simulator orders events that share a timestamp. The
    /// default is FIFO; `spread-check` injects seeded policies to fuzz
    /// over legal schedules.
    pub tie_break: TieBreak,
    /// Injected faults (`None` = the machine never fails). The plan's
    /// seed also drives retry-backoff jitter, so a `(program, config)`
    /// pair replays byte-identically.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for transient copy errors.
    pub retry: RetryPolicy,
    /// Circuit breaker: this many *consecutive* transient faults on one
    /// device escalate to a permanent loss.
    pub breaker: u32,
    /// Watchdog on blocking drains: if a wait makes no progress past
    /// this much virtual time, it fails with [`RtError::Timeout`]
    /// instead of spinning (`None` = wait forever).
    pub watchdog: Option<SimDuration>,
    /// Size of the bounded host staging buffer used by the spill
    /// executor (the last rung of the memory-pressure ladder). A chunk
    /// whose device footprint exceeds this executes in multiple
    /// map→compute→unmap slices.
    pub spill_staging_bytes: u64,
    /// Damping factor α in `(0, 1]` for the `spread_schedule(auto)`
    /// weight update: `w' = (1 − α)·w + α·ideal`. Small values adapt
    /// slowly but smooth noisy observations; `1.0` jumps straight to the
    /// measured ideal split each launch.
    pub adaptive_damping: f64,
}

impl RuntimeConfig {
    /// A config for the given topology with sensible defaults.
    pub fn new(topology: Topology) -> Self {
        RuntimeConfig {
            topology,
            team_threads: 4,
            default_num_teams: 80,
            default_threads_per_team: 64,
            trace: true,
            alloc_backpressure: false,
            tie_break: TieBreak::Fifo,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: 8,
            watchdog: None,
            spill_staging_bytes: 1 << 20,
            adaptive_damping: 0.5,
        }
    }

    /// Enable allocation backpressure (see the field docs).
    pub fn with_alloc_backpressure(mut self, on: bool) -> Self {
        self.alloc_backpressure = on;
        self
    }

    /// Set the host team size.
    pub fn with_team_threads(mut self, n: usize) -> Self {
        self.team_threads = n.max(1);
        self
    }

    /// Enable/disable trace recording.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set the simulator's equal-time event ordering policy.
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Inject a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Set the transient-copy retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the consecutive-fault circuit-breaker threshold.
    pub fn with_breaker(mut self, n: u32) -> Self {
        self.breaker = n.max(1);
        self
    }

    /// Arm the blocking-drain watchdog.
    pub fn with_watchdog(mut self, limit: SimDuration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Set the host spill staging-buffer size.
    pub fn with_spill_staging_bytes(mut self, bytes: u64) -> Self {
        self.spill_staging_bytes = bytes.max(8);
        self
    }

    /// Set the `spread_schedule(auto)` damping factor (clamped to
    /// `(0, 1]`).
    pub fn with_adaptive_damping(mut self, alpha: f64) -> Self {
        self.adaptive_damping = alpha.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }
}

/// Which rung of the memory-pressure degradation ladder fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradationKind {
    /// Admission control moved a chunk off its preferred device
    /// before launch (`admission_shrunk`).
    AdmissionShrunk,
    /// A chunk was split because no single device could hold it
    /// (`chunk_split`).
    ChunkSplit,
    /// A chunk (or piece) executed through the bounded host staging
    /// buffer (`spilled_bytes`).
    Spilled,
}

/// One degradation decision, recorded in program order. `spread-check`
/// compares the exact sequence against its oracle's prediction; the
/// events are deterministic because they are derived from admission
/// decisions taken at construct-launch time, never from event races.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Which rung fired.
    pub kind: DegradationKind,
    /// The device the piece landed on (`None` for a host spill).
    pub device: Option<u32>,
    /// First loop iteration of the affected piece.
    pub start: usize,
    /// Iteration count of the affected piece.
    pub len: usize,
    /// Device-footprint bytes of the piece.
    pub bytes: u64,
}

/// What an action reports back to the scheduler.
pub(crate) enum Completion {
    /// The task is done; complete it now.
    Done,
    /// The action arranged for [`complete_task`] to be called later.
    Async,
}

/// A task's action: runs when the task starts in virtual time.
pub(crate) type Action =
    Box<dyn FnOnce(&mut Simulator, &Rc<RefCell<Inner>>, TaskId) -> Result<Completion, RtError>>;

/// A fault handler shared by the tasks of one construct: fires at most
/// once (the `Option` is taken), receiving the faulted task and its
/// error in a fresh [`Scope`].
pub(crate) type RecoveryHandler =
    Rc<RefCell<Option<Box<dyn FnOnce(&mut Scope<'_>, TaskId, RtError)>>>>;

/// Registration of a recovery handler for one task.
pub(crate) struct Recoverer {
    /// The device whose permanent loss this handler covers. Errors on a
    /// task whose device is *not* lost still poison the runtime — the
    /// handler only routes around dead hardware, never around bugs.
    pub(crate) device: u32,
    /// When true, the handler additionally covers
    /// [`RtError::OutOfMemory`] on the registered tasks (the
    /// memory-pressure ladder: a persistent OOM after retries hands the
    /// chunk to the split/spill coordinator instead of poisoning the
    /// runtime). Unlike the loss arm, this does not require a fault
    /// context — fragmentation can exhaust a healthy device.
    pub(crate) on_oom: bool,
    /// When true, the handler additionally covers
    /// [`RtError::IntegrityViolation`] on the registered tasks
    /// (`spread_integrity(heal)`): a digest mismatch at a trust
    /// boundary hands the piece back for re-execution from the unharmed
    /// host image instead of poisoning the runtime. Like the OOM arm,
    /// this does not require the device to be lost — the whole point is
    /// that the device is still up and lying.
    pub(crate) on_integrity: bool,
    pub(crate) handler: RecoveryHandler,
}

/// Shared mutable state of the runtime.
pub(crate) struct Inner {
    pub(crate) host: HostRegistry,
    pub(crate) devices: Vec<DeviceHandle>,
    pub(crate) presence: Vec<PresenceTable>,
    pub(crate) graph: TaskGraph,
    pub(crate) actions: std::collections::HashMap<TaskId, Action>,
    pub(crate) current_parent: Option<TaskId>,
    pub(crate) current_group: Option<GroupId>,
    pub(crate) error: Option<RtError>,
    pub(crate) alloc_backpressure: bool,
    /// Enter tasks waiting for device memory: (device, task, maps).
    pub(crate) mem_waiters: Vec<(u32, TaskId, Vec<MapClause>)>,
    pub(crate) pool: Rc<TeamPool>,
    pub(crate) flownet: SharedFlowNet,
    pub(crate) trace: TraceRecorder,
    pub(crate) default_num_teams: u32,
    pub(crate) default_threads_per_team: u32,
    /// Shared fault arbitration (`None` = fault-free machine).
    pub(crate) fault: Option<FaultCtx>,
    /// Registered recovery handlers, keyed by task.
    pub(crate) recoverers: std::collections::HashMap<TaskId, Recoverer>,
    /// Watchdog limit for blocking drains.
    pub(crate) watchdog: Option<SimDuration>,
    /// Bytes currently held on each device by the fault injector's
    /// pressure allocations (OOM spikes and sustained windows). These
    /// bytes sit inside the pool's `used` figure, but
    /// [`FaultCtx::oom_outstanding`] already forecasts them — headroom
    /// queries subtract this to avoid double counting.
    pub(crate) injector_live: Vec<u64>,
    /// Every decision taken so far, in the order it was taken (see
    /// [`Runtime::journal`]).
    pub(crate) journal: Vec<Event>,
    /// Retry policy reused for pressure-managed enter backoff.
    pub(crate) retry: RetryPolicy,
    /// Host staging-buffer bound for the spill executor.
    pub(crate) spill_staging_bytes: u64,
    /// Keyed adaptive-schedule state (`spread_schedule(auto)`).
    pub(crate) profiles: crate::profile::ProfileStore,
    /// Live staged-commit buffers, keyed by the construct's device: the
    /// at-rest corruption surface. A
    /// [`MemoryScribble`](PlannedFault::MemoryScribble) flips one bit in
    /// the first non-empty staged snapshot it finds here — the window
    /// between a D2H's eager device read and its commit into host
    /// memory. Dead weak handles are pruned on insert.
    pub(crate) staged_registry: Vec<(u32, std::rc::Weak<RefCell<Vec<StagedWrite>>>)>,
}

/// One straggler rescue: a lagging piece speculatively re-executed on a
/// healthy sibling device (journaled as [`Event::Rescue`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RescueRecord {
    /// First loop iteration of the rescued piece.
    pub start: usize,
    /// Iteration count of the rescued piece.
    pub len: usize,
    /// The straggling device the piece was originally placed on.
    pub from: u32,
    /// The healthy sibling the speculative copy ran on.
    pub to: u32,
    /// Which copy's staged writes landed: `Some(0)` = the original
    /// straggler still won, `Some(1)` = the rescue won, `None` = neither
    /// exit has committed yet.
    pub winner: Option<u32>,
    /// Staged-write sets drained to host memory for this piece. Exactly
    /// 1 in any correct completed run.
    pub commits: u32,
    /// True when the straggler's in-flight kernel was cancelled
    /// (`spread_straggler(steal)`); false when both copies ran to
    /// completion (`replicate`, or a steal whose cancel arrived too
    /// late).
    pub stolen: bool,
}

/// One planned device-to-device copy (journaled as [`Event::PeerCopy`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerCopyRecord {
    /// Source device the destination pulled from.
    pub src: u32,
    /// Destination device.
    pub dst: u32,
    /// The host-array section transferred.
    pub section: Section,
    /// Payload size in bytes.
    pub bytes: u64,
    /// True when the effect-time re-verification found the source
    /// gone or stale and the copy was replayed over the host path
    /// instead.
    pub diverted: bool,
}

impl Inner {
    /// Validate a device id: it must exist and still be alive. The
    /// liveness check is the central fail-stop interception point —
    /// every planner (`plan_enter`, `plan_exit`, `plan_update`,
    /// `run_kernel`) goes through here, so a directive issued against a
    /// dead device fails with [`RtError::DeviceLost`] at task start.
    pub(crate) fn check_device(&self, device: u32) -> Result<(), RtError> {
        if (device as usize) >= self.devices.len() {
            return Err(RtError::InvalidDirective(format!(
                "device {device} does not exist (node has {})",
                self.devices.len()
            )));
        }
        if let Some(ctx) = &self.fault {
            if ctx.is_lost(device) {
                return Err(RtError::DeviceLost {
                    device,
                    what: "a directive targeting it".into(),
                });
            }
        }
        Ok(())
    }

    /// Flag the journaled peer copy at `idx` as replayed over the host.
    pub(crate) fn divert_peer_copy(&mut self, idx: usize) {
        if let Event::PeerCopy(r) = &mut self.journal[idx] {
            r.diverted = true;
        }
    }
}

/// One planned copy between host and a device buffer.
pub(crate) struct CopyPlanItem {
    pub section: Section,
    pub alloc: AllocId,
    /// Element offset of `section.start` within the device buffer.
    pub offset: usize,
    pub label: String,
}

/// Result of planning an enter-mapping set.
pub(crate) struct EnterPlan {
    pub copies: Vec<CopyPlanItem>,
}

/// Result of planning an exit-mapping set.
pub(crate) struct ExitPlan {
    pub copies: Vec<CopyPlanItem>,
    pub to_free: Vec<EntryKey>,
}

impl Inner {
    fn conflict_to_error(&self, device: u32, requested: Section, c: MapConflict) -> RtError {
        match c {
            MapConflict::Extension { present } => RtError::OverlapExtension {
                device,
                requested,
                present,
            },
            MapConflict::NotMapped => RtError::NotMapped { device, requested },
        }
    }

    /// Apply the enter half of a map set: presence bookkeeping +
    /// allocation, returning the copies to perform.
    ///
    /// Transactional: on any error, bookkeeping performed for earlier
    /// map items is rolled back, so a failed plan can be retried (the
    /// allocation-backpressure path re-runs it after a release).
    pub(crate) fn plan_enter(
        &mut self,
        device: u32,
        maps: &[MapClause],
    ) -> Result<EnterPlan, RtError> {
        self.check_device(device)?;
        let d = device as usize;
        let mut copies = Vec::new();
        // Undo log: reused entries (refcount to drop) and fresh inserts.
        let mut reused: Vec<Section> = Vec::new();
        let mut fresh: Vec<crate::mapping::EntryKey> = Vec::new();
        for m in maps {
            if !m.map_type.valid_on_enter() && m.map_type != MapType::From {
                self.rollback_enter(d, reused, fresh);
                return Err(RtError::InvalidDirective(format!(
                    "map type {:?} is not valid when entering a mapping",
                    m.map_type
                )));
            }
            if m.section.is_empty() {
                continue;
            }
            let decision = match self.presence[d].begin_enter(m.section) {
                Ok(dec) => dec,
                Err(c) => {
                    let err = self.conflict_to_error(device, m.section, c);
                    self.rollback_enter(d, reused, fresh);
                    return Err(err);
                }
            };
            match decision {
                EnterDecision::Reuse(_) => reused.push(m.section),
                EnterDecision::Fresh => {
                    let alloc_result = self.devices[d].mem.borrow_mut().alloc_elems(m.section.len);
                    let alloc = match alloc_result {
                        Ok(a) => a,
                        Err(oom) => {
                            let err = RtError::OutOfMemory {
                                device,
                                requested: m.section,
                                bytes: oom.requested,
                                free: oom.free,
                            };
                            self.rollback_enter(d, reused, fresh);
                            return Err(err);
                        }
                    };
                    let key = self.presence[d].insert_fresh(m.section, alloc);
                    fresh.push(key);
                    if m.map_type.copies_in() {
                        copies.push(CopyPlanItem {
                            section: m.section,
                            alloc,
                            offset: 0,
                            label: format!("{} H2D {}", self.host.name(m.section.array), m.section),
                        });
                    }
                }
            }
        }
        Ok(EnterPlan { copies })
    }

    /// Undo the bookkeeping of a partially applied enter-plan.
    fn rollback_enter(
        &mut self,
        d: usize,
        reused: Vec<Section>,
        fresh: Vec<crate::mapping::EntryKey>,
    ) {
        for s in reused {
            // Drop the extra reference we took.
            match self.presence[d].begin_exit(&s, false) {
                Ok(ExitDecision::Keep(_)) => {}
                Ok(ExitDecision::LastRef(key)) => {
                    if let Some(alloc) = self.presence[d].finish_exit(key) {
                        self.devices[d].mem.borrow_mut().dealloc(alloc);
                    }
                }
                Err(_) => unreachable!("undoing a reuse we just made"),
            }
        }
        for key in fresh {
            let sec = self.presence[d]
                .entry(key)
                .expect("fresh entry still present")
                .section;
            match self.presence[d].begin_exit(&sec, true) {
                Ok(ExitDecision::LastRef(k)) => {
                    if let Some(a) = self.presence[d].finish_exit(k) {
                        self.devices[d].mem.borrow_mut().dealloc(a);
                    }
                }
                _ => unreachable!("undoing a fresh insert we just made"),
            }
        }
    }

    /// Apply the exit half of a map set.
    pub(crate) fn plan_exit(
        &mut self,
        device: u32,
        maps: &[MapClause],
    ) -> Result<ExitPlan, RtError> {
        self.check_device(device)?;
        let mut copies = Vec::new();
        let mut to_free = Vec::new();
        for m in maps {
            if !m.map_type.valid_on_exit() {
                return Err(RtError::InvalidDirective(format!(
                    "map type {:?} is not valid when exiting a mapping",
                    m.map_type
                )));
            }
            if m.section.is_empty() {
                continue;
            }
            let d = device as usize;
            let decision = self.presence[d]
                .begin_exit(&m.section, m.map_type == MapType::Delete)
                .map_err(|c| self.conflict_to_error(device, m.section, c))?;
            match decision {
                ExitDecision::Keep(_) => {}
                ExitDecision::LastRef(key) => {
                    if m.map_type.copies_out() {
                        let entry = self.presence[d].entry(key).expect("dying entry");
                        copies.push(CopyPlanItem {
                            section: m.section,
                            alloc: entry.alloc,
                            offset: m.section.start - entry.section.start,
                            label: format!("{} D2H {}", self.host.name(m.section.array), m.section),
                        });
                    }
                    to_free.push(key);
                }
            }
        }
        Ok(ExitPlan { copies, to_free })
    }

    /// Plan a `target update` copy set: sections must be present.
    pub(crate) fn plan_update(
        &mut self,
        device: u32,
        to_items: &[Section],
        from_items: &[Section],
    ) -> Result<(Vec<CopyPlanItem>, Vec<CopyPlanItem>), RtError> {
        self.check_device(device)?;
        let d = device as usize;
        let plan = |items: &[Section], dir: &str| -> Result<Vec<CopyPlanItem>, RtError> {
            let mut out = Vec::new();
            for &s in items {
                if s.is_empty() {
                    continue;
                }
                let Some((_, entry)) = self.presence[d].lookup_containing(&s) else {
                    return Err(RtError::NotMapped {
                        device,
                        requested: s,
                    });
                };
                out.push(CopyPlanItem {
                    section: s,
                    alloc: entry.alloc,
                    offset: s.start - entry.section.start,
                    label: format!("{} upd-{dir} {}", self.host.name(s.array), s),
                });
            }
            Ok(out)
        };
        Ok((plan(to_items, "to")?, plan(from_items, "from")?))
    }

    /// The eligible peer source for a to-copy of `sec` onto `device`:
    /// the lowest-numbered sibling that is alive, holds a presence
    /// entry containing `sec`, and whose device bytes over `sec` are
    /// bit-equal to the host image. Bit-equality is what makes a peer
    /// pull observationally identical to the host copy it replaces —
    /// and what lets the conformance oracle replicate this rule
    /// exactly (ascending scan, first match wins).
    pub(crate) fn peer_source_for(&self, device: u32, sec: &Section) -> Option<u32> {
        let host = self.host.storage(sec.array);
        let host = host.borrow();
        for (sd, table) in self.presence.iter().enumerate() {
            let src = sd as u32;
            if src == device || self.fault.as_ref().is_some_and(|ctx| ctx.is_lost(src)) {
                continue;
            }
            let Some((_, entry)) = table.lookup_containing(sec) else {
                continue;
            };
            let off = sec.start - entry.section.start;
            let smem = self.devices[sd].mem.borrow();
            let sbuf = &smem.buffer(entry.alloc)[off..off + sec.len];
            if sbuf
                .iter()
                .zip(&host[sec.range()])
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                return Some(src);
            }
        }
        None
    }

    /// Resolve an `exchange(…)` clause into a per-to-copy route:
    /// `Some(src)` pulls device-to-device, `None` goes over the host
    /// bus. `exchange(peer)` demands a source for every copy and
    /// rejects the directive otherwise.
    pub(crate) fn plan_peer_routes(
        &self,
        device: u32,
        mode: crate::directives::ExchangeMode,
        to_copies: &[CopyPlanItem],
    ) -> Result<Vec<Option<u32>>, RtError> {
        use crate::directives::ExchangeMode;
        match mode {
            ExchangeMode::Host => Ok(vec![None; to_copies.len()]),
            ExchangeMode::Auto => Ok(to_copies
                .iter()
                .map(|c| self.peer_source_for(device, &c.section))
                .collect()),
            ExchangeMode::Peer => {
                if self.devices.len() < 2 {
                    return Err(RtError::InvalidDirective(
                        "exchange(peer) requires at least two devices".into(),
                    ));
                }
                to_copies
                    .iter()
                    .map(|c| {
                        self.peer_source_for(device, &c.section)
                            .map(Some)
                            .ok_or_else(|| {
                                RtError::InvalidDirective(format!(
                                    "exchange(peer): no eligible peer source for {} on device {device}",
                                    c.section
                                ))
                            })
                    })
                    .collect()
            }
        }
    }
}

/// Run an enter-mapping task's work: plan (with rollback), then either
/// stream the copies or — with allocation backpressure on — park the
/// task until a release frees device memory.
pub(crate) fn enter_with_backpressure(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: Vec<MapClause>,
) -> Result<(), RtError> {
    let planned = {
        let mut inner = inner_rc.borrow_mut();
        match inner.plan_enter(device, &maps) {
            Ok(plan) => Some(plan),
            Err(e @ RtError::OutOfMemory { .. }) if inner.alloc_backpressure => {
                inner.mem_waiters.push((device, id, maps));
                let _ = e;
                None
            }
            Err(e) => return Err(e),
        }
    };
    if let Some(plan) = planned {
        run_transfers(
            sim,
            inner_rc,
            id,
            device,
            plan.copies,
            Vec::new(),
            Vec::new(),
        );
    }
    Ok(())
}

/// After device memory was released on `device`, retry parked enter
/// tasks (FIFO; stops at the first that still does not fit).
pub(crate) fn retry_mem_waiters(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    loop {
        let next = {
            let mut inner = inner_rc.borrow_mut();
            let pos = inner.mem_waiters.iter().position(|(d, _, _)| *d == device);
            pos.map(|p| inner.mem_waiters.remove(p))
        };
        let Some((d, id, maps)) = next else { return };
        let before = inner_rc.borrow().mem_waiters.len();
        if let Err(e) = enter_with_backpressure(sim, inner_rc, id, d, maps) {
            inner_rc.borrow_mut().error.get_or_insert(e);
            return;
        }
        // If it re-parked itself, memory is still too tight: stop (FIFO
        // fairness; the next release will retry again).
        if inner_rc.borrow().mem_waiters.len() > before {
            return;
        }
    }
}

/// Run a pressure-managed enter-mapping task: like
/// [`enter_with_backpressure`], but an [`RtError::OutOfMemory`] is
/// retried a bounded number of times (sim-scheduled backoff, so an
/// expiring OOM spike can clear) instead of parking indefinitely on
/// `mem_waiters`. When retries are exhausted the task *fails* with the
/// OOM, which routes it to the construct's registered pressure
/// recoverer (split or spill). Never returns an error: every outcome is
/// delivered through the task graph.
pub(crate) fn pressure_enter(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    device: u32,
    maps: Vec<MapClause>,
    attempt: u32,
) {
    if inner_rc.borrow().error.is_some() {
        return;
    }
    let planned = inner_rc.borrow_mut().plan_enter(device, &maps);
    match planned {
        Ok(plan) => run_transfers(
            sim,
            inner_rc,
            id,
            device,
            plan.copies,
            Vec::new(),
            Vec::new(),
        ),
        Err(e @ RtError::OutOfMemory { .. }) => {
            let (max_retries, backoff) = {
                let inner = inner_rc.borrow();
                let retry = inner.retry;
                let backoff = match &inner.fault {
                    // With a fault context, draw from the run's single
                    // seeded PRNG (same stream as transient-copy
                    // backoff) so replays stay byte-identical.
                    Some(ctx) => ctx.backoff(attempt),
                    // Without one there is nothing to race against:
                    // a jitter-free exponential is fully deterministic.
                    None => retry.backoff_unjittered(attempt),
                };
                (retry.max_retries, backoff)
            };
            if attempt >= max_retries {
                task_failed(sim, inner_rc, id, e);
                return;
            }
            let weak = Rc::downgrade(inner_rc);
            let at = sim.now() + backoff;
            sim.schedule_at(
                at,
                Box::new(move |sim| {
                    if let Some(rc) = weak.upgrade() {
                        pressure_enter(sim, &rc, id, device, maps, attempt + 1);
                    }
                }),
            );
        }
        Err(e) => task_failed(sim, inner_rc, id, e),
    }
}

/// Schedule a task's start event at the current instant.
pub(crate) fn schedule_start(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let rc = Rc::clone(inner_rc);
    sim.schedule_now(Box::new(move |sim| start_task(sim, &rc, id)));
}

/// Fire a task: mark running, run its action, handle the outcome.
pub(crate) fn start_task(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let action = {
        let mut inner = inner_rc.borrow_mut();
        if inner.error.is_some() {
            return;
        }
        inner.graph.start(id);
        inner.actions.remove(&id)
    };
    match action {
        None => complete_task(sim, inner_rc, id),
        Some(action) => match action(sim, inner_rc, id) {
            Ok(Completion::Done) => complete_task(sim, inner_rc, id),
            Ok(Completion::Async) => {}
            Err(e) => task_failed(sim, inner_rc, id, e),
        },
    }
}

/// Route a task failure: if the task has a registered recovery handler
/// *and* either the handler's device really is lost or the handler
/// opted into out-of-memory recovery and the error is an OOM, the
/// handler runs (once) with a fresh [`Scope`] — it is responsible for
/// eventually completing the faulted task. Every other failure poisons
/// the runtime (fail-stop, the default).
pub(crate) fn task_failed(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    id: TaskId,
    err: RtError,
) {
    let handler = {
        let inner = inner_rc.borrow();
        match inner.recoverers.get(&id) {
            Some(r) => {
                let lost = inner
                    .fault
                    .as_ref()
                    .is_some_and(|ctx| ctx.is_lost(r.device));
                // The OOM arm deliberately does not require a fault
                // context: a healthy device can still run out of
                // contiguous memory (fragmentation).
                let oom = r.on_oom && matches!(err, RtError::OutOfMemory { .. });
                // The integrity arm does not require the device to be
                // lost either: a healing construct re-executes on a
                // device that is alive but produced rotten bytes.
                let corrupt = r.on_integrity && matches!(err, RtError::IntegrityViolation { .. });
                if lost || oom || corrupt {
                    r.handler.borrow_mut().take()
                } else {
                    None
                }
            }
            None => None,
        }
    };
    match handler {
        Some(h) => {
            let mut scope = Scope {
                sim,
                inner: inner_rc,
            };
            h(&mut scope, id, err);
        }
        None => {
            inner_rc.borrow_mut().error.get_or_insert(err);
        }
    }
}

/// Cleanup after a permanent device loss (runs as a [`FaultCtx`] hook):
/// the device's memory contents are gone, so every mapping on it is
/// wiped and its allocator reset; enter tasks parked on its memory can
/// never be satisfied and fail with [`RtError::DeviceLost`].
pub(crate) fn device_lost_cleanup(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    let stranded = {
        let mut inner = inner_rc.borrow_mut();
        let d = device as usize;
        inner.presence[d].clear();
        let capacity = inner.devices[d].mem.borrow().pool().capacity();
        *inner.devices[d].mem.borrow_mut() = DeviceMemory::new(capacity);
        let mut stranded = Vec::new();
        inner.mem_waiters.retain(|(dd, id, _)| {
            let mine = *dd == device;
            if mine {
                stranded.push(*id);
            }
            !mine
        });
        stranded
    };
    for id in stranded {
        task_failed(
            sim,
            inner_rc,
            id,
            RtError::DeviceLost {
                device,
                what: "a mapping parked for device memory".into(),
            },
        );
    }
}

/// Mark a task finished; schedule newly ready successors.
pub(crate) fn complete_task(sim: &mut Simulator, inner_rc: &Rc<RefCell<Inner>>, id: TaskId) {
    let ready = inner_rc.borrow_mut().graph.finish(id);
    for t in ready {
        schedule_start(sim, inner_rc, t);
    }
}

/// A device→host copy captured at its virtual start, committed to host
/// memory only when the whole transfer set succeeds. The final field is
/// the source-side CRC32C of the snapshot (computed over the bytes the
/// DMA engine actually read, before anything can rot in flight or at
/// rest), `None` under `spread_integrity(off)`.
pub(crate) type StagedWrite = (Rc<RefCell<Vec<f64>>>, Section, Vec<f64>, Option<u32>);

/// Flip the lowest mantissa bit of `data[0]` — the canonical injected
/// single-bit corruption. Chosen so the damage is value-visible but
/// tiny: exactly what end-to-end checksums exist to catch and what
/// value-level sanity checks miss.
/// Flip the top exponent bit of the payload's first element. A single
/// low-mantissa flip of a near-zero value washes out as a sub-ulp
/// wobble the next accumulation absorbs; rescaling the exponent makes
/// the rot orders of magnitude wrong (even 0.0 becomes 2.0), so
/// unchecked corruption stays visible all the way to a reduced result —
/// the worst case an end-to-end checksum has to catch.
pub(crate) fn flip_one_bit(data: &mut [f64]) {
    if let Some(v) = data.first_mut() {
        *v = f64::from_bits(v.to_bits() ^ (1u64 << 62));
    }
}

/// Apply a planned [`MemoryScribble`](PlannedFault::MemoryScribble):
/// flip one bit in the first non-empty staged D2H snapshot currently
/// pending commit for `device`. Inert when nothing is staged at the
/// planned instant — at-rest corruption needs bytes at rest.
pub(crate) fn scribble_staged(inner_rc: &Rc<RefCell<Inner>>, device: u32) {
    let inner = inner_rc.borrow();
    for (d, weak) in &inner.staged_registry {
        if *d != device {
            continue;
        }
        let Some(staged) = weak.upgrade() else {
            continue;
        };
        let mut staged = staged.borrow_mut();
        if let Some((_, _, data, _)) = staged.iter_mut().find(|(_, _, data, _)| !data.is_empty()) {
            flip_one_bit(data);
            return;
        }
    }
}

/// Enqueue a set of planned copies as DMA operations; when all complete,
/// run the cleanup (presence removal + dealloc for exits) and complete
/// the task.
///
/// D2H copies are *staged*: their effect snapshots the device buffer at
/// the copy's virtual start, but host memory is only written when every
/// copy of the set has succeeded. If any copy faults (a device dying
/// mid-exit), the host keeps its old data wholesale — a recovery
/// handler can then replay the construct from an unharmed host image
/// instead of one with a half-written mix. For race-free programs this
/// is observationally equivalent to eager host writes, because
/// dependent tasks only start after the transfer task completes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_transfers(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    in_copies: Vec<CopyPlanItem>,
    out_copies: Vec<CopyPlanItem>,
    to_free: Vec<EntryKey>,
) {
    run_transfers_ex(
        sim,
        inner_rc,
        task,
        device,
        in_copies,
        Vec::new(),
        out_copies,
        to_free,
        IntegrityMode::Off,
        None,
    );
}

/// A one-shot transfer-set finalizer, shared by every op's completion
/// and fault paths.
type FinishSlot = Rc<RefCell<Option<Box<dyn FnOnce(&mut Simulator)>>>>;

/// Count one op as done; the last one runs the set's finalizer.
fn finish_one(sim: &mut Simulator, remaining: &Rc<std::cell::Cell<usize>>, finish: &FinishSlot) {
    remaining.set(remaining.get() - 1);
    if remaining.get() == 0 {
        let f = finish.borrow_mut().take().expect("finish once");
        f(sim);
    }
}

/// The shared fault handler of a transfer set: record the first error,
/// count the op as done.
fn transfer_fault(
    what: String,
    failed: Rc<RefCell<Option<RtError>>>,
    remaining: Rc<std::cell::Cell<usize>>,
    finish: FinishSlot,
) -> spread_devices::health::OnFault {
    Box::new(move |sim, ev| {
        let err = match ev.kind {
            FaultEventKind::TransientExhausted { attempts } => RtError::TransientCopy {
                device: ev.device,
                what,
                attempts,
            },
            FaultEventKind::DeviceLost => RtError::DeviceLost {
                device: ev.device,
                what,
            },
        };
        failed.borrow_mut().get_or_insert(err);
        finish_one(sim, &remaining, &finish);
    })
}

/// The whole-piece commit point shared by the classic exit path
/// ([`run_transfers_ex`]) and the pipelined overlap exit
/// ([`crate::overlap`]): verify every staged snapshot's source CRC,
/// arbitrate the commit gate, drain (or discard) the staged writes
/// all-or-nothing, release the dying presence entries, and complete or
/// fail the task. Returns the number of staged snapshots actually
/// written to host memory.
#[allow(clippy::too_many_arguments)]
pub(crate) fn staged_commit_finish(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    staged: &Rc<RefCell<Vec<StagedWrite>>>,
    failed: &Rc<RefCell<Option<RtError>>>,
    to_free: &[EntryKey],
    integrity: IntegrityMode,
    gate: &Option<(crate::commit::CommitGate, u32)>,
) -> usize {
    if let Some(err) = failed.borrow_mut().take() {
        // No host writes, no presence cleanup: the dying entries
        // (if any) were wiped by the device-loss hook, and a
        // poisoned runtime never reuses them.
        task_failed(sim, inner_rc, task, err);
        return 0;
    }
    // Trust boundary 1 — staged-commit drain: re-digest every
    // snapshot that carries a source CRC before it may touch
    // host memory. The digest was taken over the device bytes
    // at the copy's virtual start; anything that rotted since —
    // in flight (SilentFlip) or at rest (MemoryScribble) — shows
    // up here.
    let tainted: Vec<Section> = staged
        .borrow()
        .iter()
        .filter_map(|(_, sec, data, crc)| {
            crc.and_then(|c| (spread_devices::digest_f64(data) != c).then_some(*sec))
        })
        .collect();
    if !tainted.is_empty() {
        if let Some((g, copy)) = gate {
            // Never arbitrate with rotten bytes: a clean racing
            // sibling (if any) takes the win.
            g.disqualify(*copy);
        }
        staged.borrow_mut().clear();
        let now = sim.now();
        let quarantined = {
            let inner = inner_rc.borrow();
            integrity == IntegrityMode::Heal
                && inner
                    .fault
                    .as_ref()
                    .is_some_and(|ctx| ctx.record_integrity_mismatch(device))
        };
        let action = match (integrity, quarantined) {
            (_, true) => IntegrityAction::Quarantined,
            (IntegrityMode::Heal, _) => IntegrityAction::Healed,
            _ => IntegrityAction::Failed,
        };
        {
            let mut inner = inner_rc.borrow_mut();
            for &sec in &tainted {
                journal::record(
                    now,
                    &mut inner,
                    Event::Integrity(IntegrityEvent {
                        device,
                        section: sec,
                        at: now,
                        boundary: IntegrityBoundary::Commit,
                        action,
                    }),
                );
            }
        }
        let err = RtError::IntegrityViolation {
            device,
            section: tainted[0],
        };
        if quarantined {
            // Streak tripped the breaker: the device's data path
            // cannot be trusted at all — treat it as lost. The
            // loss hook wipes its presence table and allocator,
            // so the dying entries need no cleanup here.
            let ctx = inner_rc.borrow().fault.clone();
            if let Some(ctx) = ctx {
                ctx.mark_lost(sim, device);
            }
            task_failed(sim, inner_rc, task, err);
            return 0;
        }
        if integrity == IntegrityMode::Heal {
            // The device is alive: release its mapping normally
            // so the recoverer's fresh enter→kernel→exit starts
            // from a clean table.
            let freed = {
                let mut inner = inner_rc.borrow_mut();
                let d = device as usize;
                for key in to_free {
                    if let Some(alloc) = inner.presence[d].finish_exit(*key) {
                        inner.devices[d].mem.borrow_mut().dealloc(alloc);
                    }
                }
                !to_free.is_empty()
            };
            if freed {
                retry_mem_waiters(sim, inner_rc, device);
            }
        }
        task_failed(sim, inner_rc, task, err);
        return 0;
    }
    if integrity.checks() && staged.borrow().iter().any(|(_, _, _, crc)| crc.is_some()) {
        // A fully clean checked drain resets the mismatch
        // streak: the breaker counts *consecutive* offences.
        if let Some(ctx) = &inner_rc.borrow().fault {
            ctx.record_integrity_ok(device);
        }
    }
    let committed = match gate {
        None => true,
        Some((g, copy)) => g.try_commit(sim.now(), *copy),
    };
    let mut drained = 0usize;
    if committed {
        for (store, sec, data, _) in staged.borrow_mut().drain(..) {
            store.borrow_mut()[sec.range()].copy_from_slice(&data);
            drained += 1;
        }
    } else if gate.as_ref().is_some_and(|(g, _)| g.duplicates_forced()) {
        // Canary path: the losing copy commits anyway, with its
        // first staged element perturbed so the double commit is
        // value-visible to a differential harness.
        let mut perturb = true;
        for (store, sec, mut data, _) in staged.borrow_mut().drain(..) {
            if perturb && !data.is_empty() {
                data[0] += 1.0;
                perturb = false;
            }
            store.borrow_mut()[sec.range()].copy_from_slice(&data);
            drained += 1;
        }
        if let Some((g, _)) = gate {
            g.count_forced_commit();
        }
    } else {
        staged.borrow_mut().clear();
    }
    if let Some((g, _)) = gate {
        if let Some(ix) = g.log_idx() {
            let mut inner = inner_rc.borrow_mut();
            if let Some(Event::Rescue(rec)) = inner.journal.get_mut(ix) {
                rec.winner = g.winner();
                rec.commits = g.commits();
            }
        }
    }
    let freed = {
        let mut inner = inner_rc.borrow_mut();
        let d = device as usize;
        for key in to_free {
            if let Some(alloc) = inner.presence[d].finish_exit(*key) {
                inner.devices[d].mem.borrow_mut().dealloc(alloc);
            }
        }
        !to_free.is_empty()
    };
    if freed {
        retry_mem_waiters(sim, inner_rc, device);
    }
    complete_task(sim, inner_rc, task);
    drained
}

/// [`run_transfers`] with peer routing: `peer_routes` (when non-empty)
/// is index-aligned with `in_copies`; a `Some(src)` entry pulls that
/// copy device-to-device from `src` instead of over the host bus.
///
/// `integrity` is the `spread_integrity(…)` policy: under `verify` or
/// `heal`, every staged D2H snapshot and every peer payload carries a
/// source-side CRC32C that is re-checked at the trust boundary (the
/// staged-commit drain here, the peer receive in
/// [`enqueue_peer_copy`]). A mismatch fails the task with
/// [`RtError::IntegrityViolation`] — under `heal` the construct's
/// registered integrity recoverer then re-executes the piece from the
/// unharmed host image; repeat offenders are quarantined through the
/// circuit breaker.
///
/// `gate` is the speculative-execution hook: `Some((gate, copy))` makes
/// the staged D2H drain conditional on winning the gate's
/// first-commit-wins arbitration as copy index `copy`. A losing copy
/// discards its staged snapshot but still runs presence cleanup and
/// completes its task — only host memory is arbitrated. A copy whose
/// digests fail is disqualified before arbitration, so a clean racing
/// sibling can still win.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_transfers_ex(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    in_copies: Vec<CopyPlanItem>,
    peer_routes: Vec<Option<u32>>,
    out_copies: Vec<CopyPlanItem>,
    to_free: Vec<EntryKey>,
    integrity: IntegrityMode,
    gate: Option<(crate::commit::CommitGate, u32)>,
) {
    let total = in_copies.len() + out_copies.len();
    let staged: Rc<RefCell<Vec<StagedWrite>>> = Rc::new(RefCell::new(Vec::new()));
    if !out_copies.is_empty() {
        // Expose the staging buffer to the at-rest corruption surface
        // (MemoryScribble) for as long as it is live.
        let mut inner = inner_rc.borrow_mut();
        inner.staged_registry.retain(|(_, w)| w.strong_count() > 0);
        inner.staged_registry.push((device, Rc::downgrade(&staged)));
    }
    let failed: Rc<RefCell<Option<RtError>>> = Rc::new(RefCell::new(None));
    let finish = {
        let inner_rc = Rc::clone(inner_rc);
        let staged = Rc::clone(&staged);
        let failed = Rc::clone(&failed);
        move |sim: &mut Simulator| {
            staged_commit_finish(
                sim, &inner_rc, task, device, &staged, &failed, &to_free, integrity, &gate,
            );
        }
    };
    if total == 0 {
        finish(sim);
        return;
    }
    let remaining = Rc::new(std::cell::Cell::new(total));
    let finish: FinishSlot = Rc::new(RefCell::new(Some(
        Box::new(finish) as Box<dyn FnOnce(&mut Simulator)>
    )));
    let dev = inner_rc.borrow().devices[device as usize].clone();
    let routes = if peer_routes.is_empty() {
        vec![None; in_copies.len()]
    } else {
        debug_assert_eq!(peer_routes.len(), in_copies.len());
        peer_routes
    };
    let items = in_copies
        .into_iter()
        .zip(routes)
        .map(|(c, r)| (c, Direction::In, r))
        .chain(out_copies.into_iter().map(|c| (c, Direction::Out, None)));
    for (c, dir, route) in items {
        let remaining = Rc::clone(&remaining);
        let finish = Rc::clone(&finish);
        let failed = Rc::clone(&failed);
        if let Some(src) = route {
            enqueue_peer_copy(
                sim, inner_rc, &dev, device, src, c, integrity, remaining, finish, failed,
            );
            continue;
        }
        let host_store = inner_rc.borrow().host.storage(c.section.array);
        let elem_bytes = 8u64;
        let mem = dev.mem.clone();
        let (sec, alloc, off) = (c.section, c.alloc, c.offset);
        let effect: Box<dyn FnOnce()> = match dir {
            Direction::In => Box::new(move || {
                let host = host_store.borrow();
                let mut mem = mem.borrow_mut();
                let buf = mem.buffer_mut(alloc);
                buf[off..off + sec.len].copy_from_slice(&host[sec.range()]);
            }),
            _ => {
                let staged = Rc::clone(&staged);
                Box::new(move || {
                    let mem = mem.borrow();
                    let buf = mem.buffer(alloc);
                    let data = buf[off..off + sec.len].to_vec();
                    // Source-side digest: over the bytes the DMA engine
                    // actually read, before the payload can rot.
                    let crc = integrity
                        .checks()
                        .then(|| spread_devices::digest_f64(&data));
                    staged.borrow_mut().push((host_store, sec, data, crc));
                })
            }
        };
        let what = c.label.clone();
        let engine = match dir {
            Direction::In => dev.dma_in.clone(),
            _ => dev.dma_out.clone(),
        };
        engine.enqueue(
            sim,
            DmaOp {
                bytes: c.section.len as u64 * elem_bytes,
                label: c.label,
                effect: Some(effect),
                on_complete: match dir {
                    Direction::In => {
                        let remaining = Rc::clone(&remaining);
                        let finish = Rc::clone(&finish);
                        Box::new(move |sim| finish_one(sim, &remaining, &finish))
                    }
                    _ => {
                        // In-flight silent corruption: a SilentFlip
                        // token flips one bit in the staged payload
                        // *after* the source digest was taken, raising
                        // no fault. Applied regardless of the integrity
                        // mode — under `off` the rot flows through to
                        // host memory exactly as it would on a real
                        // machine without end-to-end checksums.
                        let remaining = Rc::clone(&remaining);
                        let finish = Rc::clone(&finish);
                        let staged = Rc::clone(&staged);
                        let weak = Rc::downgrade(inner_rc);
                        Box::new(move |sim| {
                            let flip = weak.upgrade().is_some_and(|rc| {
                                rc.borrow()
                                    .fault
                                    .as_ref()
                                    .is_some_and(|ctx| ctx.take_flip(device, sim.now()))
                            });
                            if flip {
                                let mut st = staged.borrow_mut();
                                if let Some((_, _, data, _)) =
                                    st.iter_mut().find(|(_, s, _, _)| *s == sec)
                                {
                                    flip_one_bit(data);
                                }
                            }
                            finish_one(sim, &remaining, &finish)
                        })
                    }
                },
                on_fault: Some(transfer_fault(what, failed, remaining, finish)),
                extra_caps: Vec::new(),
                streamed: false,
            },
        );
    }
}

/// Enqueue one device-to-device pull on the destination's peer engine.
///
/// The effect re-verifies eligibility at copy start (the engine's FIFO
/// may reach the op long after it was planned): if the source died,
/// lost its mapping, or its bytes diverged from the host image, the op
/// copies nothing and flags itself *diverted*; completion then replays
/// the section from the host over the ordinary H2D engine, inheriting
/// this op's slot in the completion set. Either way the destination
/// ends bit-identical to the host path.
///
/// This is trust boundary 2 of `spread_integrity`: the effect digests
/// the payload at its source, and completion (the receive instant)
/// re-digests the destination bytes. A mismatch — a `SilentFlip` token
/// consumed on this pull — fails the task under `verify`, or under
/// `heal` discards the tainted bytes and re-fetches the section from
/// the unharmed host image over the same fallback path a divert uses.
#[allow(clippy::too_many_arguments)]
fn enqueue_peer_copy(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    dev: &DeviceHandle,
    device: u32,
    src: u32,
    c: CopyPlanItem,
    integrity: IntegrityMode,
    remaining: Rc<std::cell::Cell<usize>>,
    finish: FinishSlot,
    failed: Rc<RefCell<Option<RtError>>>,
) {
    let (host_store, src_dev) = {
        let inner = inner_rc.borrow();
        (
            inner.host.storage(c.section.array),
            inner.devices[src as usize].clone(),
        )
    };
    let (sec, alloc, off) = (c.section, c.alloc, c.offset);
    let bytes = sec.len as u64 * 8;
    let idx = journal::record(
        sim.now(),
        &mut inner_rc.borrow_mut(),
        Event::PeerCopy(PeerCopyRecord {
            src,
            dst: device,
            section: sec,
            bytes,
            diverted: false,
        }),
    );
    let diverted = Rc::new(std::cell::Cell::new(false));
    // Source-side digest of the payload, set by the effect when the
    // pull goes ahead under verify/heal; the receive re-checks it.
    let src_crc: Rc<std::cell::Cell<Option<u32>>> = Rc::new(std::cell::Cell::new(None));
    let label = format!("p2p[{src}->{device}] {}", c.label);
    let what = label.clone();
    let effect: Box<dyn FnOnce()> = {
        let diverted = Rc::clone(&diverted);
        let src_crc = Rc::clone(&src_crc);
        let weak = Rc::downgrade(inner_rc);
        let host_store = host_store.clone();
        let mem = dev.mem.clone();
        Box::new(move || {
            let Some(rc) = weak.upgrade() else { return };
            let data: Option<Vec<f64>> = {
                let inner = rc.borrow();
                if inner.fault.as_ref().is_some_and(|ctx| ctx.is_lost(src)) {
                    None
                } else {
                    inner.presence[src as usize]
                        .lookup_containing(&sec)
                        .and_then(|(_, entry)| {
                            let off_s = sec.start - entry.section.start;
                            let smem = inner.devices[src as usize].mem.borrow();
                            let sbuf = &smem.buffer(entry.alloc)[off_s..off_s + sec.len];
                            let host = host_store.borrow();
                            sbuf.iter()
                                .zip(&host[sec.range()])
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                                .then(|| sbuf.to_vec())
                        })
                }
            };
            match data {
                None => {
                    diverted.set(true);
                    rc.borrow_mut().divert_peer_copy(idx);
                }
                Some(data) => {
                    if integrity.checks() {
                        src_crc.set(Some(spread_devices::digest_f64(&data)));
                    }
                    let mut m = mem.borrow_mut();
                    let buf = m.buffer_mut(alloc);
                    buf[off..off + sec.len].copy_from_slice(&data);
                }
            }
        })
    };
    let on_complete: Box<dyn FnOnce(&mut Simulator)> = {
        let diverted = Rc::clone(&diverted);
        let src_crc = Rc::clone(&src_crc);
        let remaining = Rc::clone(&remaining);
        let finish = Rc::clone(&finish);
        let failed = Rc::clone(&failed);
        let mem = dev.mem.clone();
        let dma_in = dev.dma_in.clone();
        let weak = Rc::downgrade(inner_rc);
        let fb_label = format!("{} (host fallback)", c.label);
        Box::new(move |sim| {
            let mut refetch = diverted.get();
            if !refetch {
                if let Some(rc) = weak.upgrade() {
                    // In-flight silent corruption: a SilentFlip token
                    // consumed on this pull flips one bit in the
                    // received payload, raising no fault (mode-blind —
                    // under `off` the rot stays).
                    let flip = rc
                        .borrow()
                        .fault
                        .as_ref()
                        .is_some_and(|ctx| ctx.take_flip(device, sim.now()));
                    if flip {
                        let mut m = mem.borrow_mut();
                        flip_one_bit(&mut m.buffer_mut(alloc)[off..off + sec.len]);
                    }
                    // Trust boundary 2 — peer receive: re-digest the
                    // destination bytes against the source digest.
                    if let Some(want) = src_crc.get() {
                        let got = {
                            let m = mem.borrow();
                            spread_devices::digest_f64(&m.buffer(alloc)[off..off + sec.len])
                        };
                        if got == want {
                            if let Some(ctx) = &rc.borrow().fault {
                                ctx.record_integrity_ok(device);
                            }
                        } else {
                            let now = sim.now();
                            let quarantined = integrity == IntegrityMode::Heal
                                && rc
                                    .borrow()
                                    .fault
                                    .as_ref()
                                    .is_some_and(|ctx| ctx.record_integrity_mismatch(device));
                            let action = match (integrity, quarantined) {
                                (_, true) => IntegrityAction::Quarantined,
                                (IntegrityMode::Heal, _) => IntegrityAction::Healed,
                                _ => IntegrityAction::Failed,
                            };
                            {
                                let mut inner = rc.borrow_mut();
                                journal::record(
                                    now,
                                    &mut inner,
                                    Event::Integrity(IntegrityEvent {
                                        device,
                                        section: sec,
                                        at: now,
                                        boundary: IntegrityBoundary::Peer,
                                        action,
                                    }),
                                );
                                if action == IntegrityAction::Healed {
                                    // The heal *is* a divert: the tainted
                                    // bytes are discarded and the section
                                    // replayed from the host image.
                                    inner.divert_peer_copy(idx);
                                }
                            }
                            match action {
                                IntegrityAction::Healed => refetch = true,
                                _ => {
                                    if quarantined {
                                        let ctx = rc.borrow().fault.clone();
                                        if let Some(ctx) = ctx {
                                            ctx.mark_lost(sim, device);
                                        }
                                    }
                                    failed.borrow_mut().get_or_insert(
                                        RtError::IntegrityViolation {
                                            device,
                                            section: sec,
                                        },
                                    );
                                    finish_one(sim, &remaining, &finish);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
            if !refetch {
                finish_one(sim, &remaining, &finish);
                return;
            }
            let what = fb_label.clone();
            let rem2 = Rc::clone(&remaining);
            let fin2 = Rc::clone(&finish);
            dma_in.enqueue(
                sim,
                DmaOp {
                    bytes,
                    label: fb_label,
                    effect: Some(Box::new(move || {
                        let host = host_store.borrow();
                        let mut m = mem.borrow_mut();
                        let buf = m.buffer_mut(alloc);
                        buf[off..off + sec.len].copy_from_slice(&host[sec.range()]);
                    })),
                    on_complete: Box::new(move |sim| finish_one(sim, &rem2, &fin2)),
                    on_fault: Some(transfer_fault(what, failed, remaining, finish)),
                    extra_caps: Vec::new(),
                    streamed: false,
                },
            );
        })
    };
    dev.dma_peer.enqueue(
        sim,
        DmaOp {
            bytes,
            label,
            effect: Some(effect),
            on_complete,
            on_fault: Some(transfer_fault(what, failed, remaining, finish)),
            extra_caps: dev.peer_route_caps(&src_dev),
            streamed: false,
        },
    );
}

/// Resolve a kernel's arguments and enqueue it on the device's compute
/// engine; completes the task when the modeled execution finishes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kernel(
    sim: &mut Simulator,
    inner_rc: &Rc<RefCell<Inner>>,
    task: TaskId,
    device: u32,
    range: Range<usize>,
    spec: &KernelSpec,
    teams: u32,
    threads_per_team: u32,
) -> Result<(), RtError> {
    let (dev, pool, resolved) = {
        let inner = inner_rc.borrow();
        inner.check_device(device)?;
        let d = device as usize;
        let mut resolved = Vec::with_capacity(spec.args.len());
        for arg in &spec.args {
            let rng = (arg.section_of)(range.clone());
            let sec = Section::from_range(arg.array.id(), rng);
            let Some((_, entry)) = inner.presence[d].lookup_containing(&sec) else {
                return Err(RtError::KernelSectionMissing {
                    device,
                    kernel: spec.name.clone(),
                    requested: sec,
                });
            };
            resolved.push(ResolvedArg {
                alloc: entry.alloc,
                entry_start: entry.section.start,
                entry_len: entry.section.len,
                access: arg.access,
                section_of: std::sync::Arc::clone(&arg.section_of),
            });
        }
        (inner.devices[d].clone(), Rc::clone(&inner.pool), resolved)
    };
    let mem = dev.mem.clone();
    let body = std::sync::Arc::clone(&spec.body);
    let schedule = spec.schedule;
    let exec_range = range.clone();
    let exec: Box<dyn FnOnce()> = Box::new(move || {
        let mut mem = mem.borrow_mut();
        kernel::execute_on_device(&mut mem, &pool, schedule, exec_range, &body, &resolved);
    });
    let inner_rc2 = Rc::clone(inner_rc);
    let inner_rc3 = Rc::clone(inner_rc);
    let kname = spec.name.clone();
    dev.compute.enqueue(
        sim,
        spread_devices::compute::KernelOp {
            tag: task.0,
            name: spec.name.clone(),
            iters: range.len() as u64,
            work_per_iter_ns: spec.work_per_iter_ns,
            teams,
            threads_per_team,
            body: Some(exec),
            on_complete: Box::new(move |sim| complete_task(sim, &inner_rc2, task)),
            on_fault: Some(Box::new(move |sim, ev| {
                task_failed(
                    sim,
                    &inner_rc3,
                    task,
                    RtError::DeviceLost {
                        device: ev.device,
                        what: format!("kernel `{kname}`"),
                    },
                );
            })),
            streamed: false,
        },
    );
    Ok(())
}

/// The offloading runtime.
pub struct Runtime {
    sim: Simulator,
    inner: Rc<RefCell<Inner>>,
}

impl Runtime {
    /// Build a runtime over the configured machine.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let trace = if cfg.trace {
            TraceRecorder::new()
        } else {
            TraceRecorder::disabled()
        };
        let mut sim = Simulator::with_tie_break(trace.clone(), cfg.tie_break);
        if let Err(e) = cfg.topology.validate() {
            panic!("invalid topology: {e}");
        }
        let node = Node::new(&cfg.topology, &trace);
        let n = node.n_devices();
        if let Some(plan) = &cfg.fault_plan {
            // Malformed plans are construction bugs, not runtime faults:
            // reject them here like an invalid topology.
            if let Err(e) = plan.validate(n) {
                panic!("invalid fault plan: {e}");
            }
        }
        let flownet = node.flownet().clone();
        let fault = cfg.fault_plan.as_ref().map(|plan| {
            let ctx = FaultCtx::new(plan, n, cfg.retry, cfg.breaker, trace.clone());
            node.attach_fault_ctx(&ctx);
            ctx
        });
        // Determinism guard: every engine must consult the ONE run-scoped
        // context — backoff jitter and fault sampling draw from its
        // single seeded PRNG, never from a second stream.
        #[cfg(debug_assertions)]
        if let Some(ctx) = &fault {
            for d in node.devices() {
                debug_assert_eq!(d.dma_in.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.dma_out.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.dma_peer.fault_ctx_ptr(), Some(ctx.ptr_id()));
                debug_assert_eq!(d.compute.fault_ctx_ptr(), Some(ctx.ptr_id()));
            }
        }
        let inner = Inner {
            host: HostRegistry::new(),
            devices: node.devices().to_vec(),
            presence: (0..n).map(|_| PresenceTable::new()).collect(),
            graph: TaskGraph::new(),
            actions: std::collections::HashMap::new(),
            current_parent: None,
            current_group: None,
            error: None,
            alloc_backpressure: cfg.alloc_backpressure,
            mem_waiters: Vec::new(),
            pool: Rc::new(TeamPool::new(cfg.team_threads)),
            flownet,
            trace,
            default_num_teams: cfg.default_num_teams,
            default_threads_per_team: cfg.default_threads_per_team,
            fault: fault.clone(),
            recoverers: std::collections::HashMap::new(),
            watchdog: cfg.watchdog,
            injector_live: vec![0; n],
            journal: Vec::new(),
            retry: cfg.retry,
            spill_staging_bytes: cfg.spill_staging_bytes,
            profiles: crate::profile::ProfileStore::new(cfg.adaptive_damping),
            staged_registry: Vec::new(),
        };
        // A fresh runtime starts its peak-memory statistics from zero:
        // `device_mem_peak` must describe *this* instance, even if the
        // underlying pools were ever handed over pre-warmed.
        for d in &inner.devices {
            d.mem.borrow_mut().pool_mut().reset_high_watermark();
        }
        let inner = Rc::new(RefCell::new(inner));
        if let (Some(ctx), Some(plan)) = (&fault, cfg.fault_plan.as_ref()) {
            // The loss hook closes over a Weak handle: the context lives
            // inside `inner` (via the engines), so a strong Rc here would
            // leak the whole runtime — device buffers included — every
            // time the fuzzer builds one.
            let weak = Rc::downgrade(&inner);
            ctx.on_device_lost(Rc::new(move |sim, d| {
                if let Some(rc) = weak.upgrade() {
                    device_lost_cleanup(sim, &rc, d);
                }
            }));
            for (d, at) in plan.losses() {
                if (d as usize) < n {
                    let ctx = ctx.clone();
                    sim.schedule_at(at, Box::new(move |sim| ctx.mark_lost(sim, d)));
                }
            }
            for (device, at) in plan.scribbles() {
                if (device as usize) >= n {
                    continue;
                }
                let weak = Rc::downgrade(&inner);
                sim.schedule_at(
                    at,
                    Box::new(move |_| {
                        if let Some(rc) = weak.upgrade() {
                            scribble_staged(&rc, device);
                        }
                    }),
                );
            }
            for f in &plan.faults {
                let (device, at, bytes, release) = match *f {
                    PlannedFault::OomSpike {
                        device,
                        at,
                        bytes,
                        duration,
                    } => (device, at, bytes, Some(at + duration)),
                    PlannedFault::OomSustained { device, at, bytes } => (device, at, bytes, None),
                    _ => continue,
                };
                if device as usize >= n {
                    continue;
                }
                let mem = inner.borrow().devices[device as usize].mem.clone();
                let held: Rc<std::cell::Cell<Option<AllocId>>> =
                    Rc::new(std::cell::Cell::new(None));
                let grab = {
                    let (mem, held) = (mem.clone(), Rc::clone(&held));
                    let weak = Rc::downgrade(&inner);
                    move || {
                        let elems = (bytes as usize).div_ceil(8).max(1);
                        let got = mem.borrow_mut().alloc_elems(elems).ok();
                        if got.is_some() {
                            if let Some(rc) = weak.upgrade() {
                                rc.borrow_mut().injector_live[device as usize] += elems as u64 * 8;
                            }
                        }
                        held.set(got);
                    }
                };
                if at == SimTime::ZERO {
                    // Time-zero pressure exists *before* the program
                    // starts: grab the block now, while the pool is
                    // empty, so it sits at the base of the address
                    // space under every same-instant tie-break. Racing
                    // it against the first construct's enter would let
                    // the block land mid-pool and fragment the free
                    // hole, turning advisory headroom into a lie.
                    grab();
                } else {
                    sim.schedule_at(at, Box::new(move |_| grab()));
                }
                let Some(until) = release else {
                    // Sustained pressure: the bytes never come back.
                    continue;
                };
                let weak = Rc::downgrade(&inner);
                sim.schedule_at(
                    until,
                    Box::new(move |sim| {
                        if let Some(id) = held.take() {
                            let elems = (bytes as usize).div_ceil(8).max(1);
                            mem.borrow_mut().dealloc(id);
                            if let Some(rc) = weak.upgrade() {
                                {
                                    let mut inner = rc.borrow_mut();
                                    let live = &mut inner.injector_live[device as usize];
                                    *live = live.saturating_sub(elems as u64 * 8);
                                }
                                retry_mem_waiters(sim, &rc, device);
                            }
                        }
                    }),
                );
            }
        }
        Runtime { sim, inner }
    }

    /// Open a scope for issuing directives.
    pub fn scope(&mut self) -> Scope<'_> {
        Scope {
            sim: &mut self.sim,
            inner: &self.inner,
        }
    }

    /// Run a program against this runtime and drain everything it left
    /// pending. The usual entry point:
    ///
    /// ```
    /// use spread_rt::prelude::*;
    /// use spread_rt::kernel::KernelArg;
    /// use spread_devices::Topology;
    ///
    /// let mut rt = Runtime::new(RuntimeConfig::new(Topology::ctepower(1)));
    /// let a = rt.host_array("A", 8);
    /// rt.fill_host(a, |i| i as f64);
    /// rt.run(|s| {
    ///     Target::device(0)
    ///         .map(tofrom(a, 0..8))
    ///         .parallel_for(s, 0..8, KernelSpec::new("dbl", 1.0, |chunk, v| {
    ///             for i in chunk {
    ///                 let x = v.get(0, i);
    ///                 v.set(0, i, 2.0 * x);
    ///             }
    ///         })
    ///         .arg(KernelArg::read_write(a, |r| r)))?;
    ///     Ok(())
    /// })
    /// .unwrap();
    /// assert_eq!(rt.snapshot_host(a)[3], 6.0);
    /// ```
    pub fn run<R>(
        &mut self,
        f: impl FnOnce(&mut Scope<'_>) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        let mut scope = self.scope();
        let r = f(&mut scope)?;
        scope.drain_all()?;
        Ok(r)
    }

    /// Register a host array.
    pub fn host_array(&mut self, name: impl Into<String>, len: usize) -> HostArray {
        self.inner.borrow_mut().host.register(name, len)
    }

    /// Fill a host array by index.
    pub fn fill_host(&self, h: HostArray, f: impl Fn(usize) -> f64) {
        self.inner.borrow().host.fill_with(h, f);
    }

    /// Copy out a host array's contents.
    pub fn snapshot_host(&self, h: HostArray) -> Vec<f64> {
        self.inner.borrow().host.snapshot(h)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Virtual time elapsed since construction — the "execution time" the
    /// paper's tables report.
    pub fn elapsed(&self) -> SimDuration {
        self.sim.now() - SimTime::ZERO
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.inner.borrow().devices.len()
    }

    /// Snapshot the trace.
    pub fn timeline(&self) -> Timeline {
        Timeline::from_recorder(&self.inner.borrow().trace)
    }

    /// The recorder itself.
    pub fn trace(&self) -> TraceRecorder {
        self.inner.borrow().trace.clone()
    }

    /// Footprint races observed so far.
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().graph.races().to_vec()
    }

    /// Bytes currently allocated on a device.
    pub fn device_mem_used(&self, device: u32) -> u64 {
        self.inner.borrow().devices[device as usize]
            .mem
            .borrow()
            .pool()
            .used()
    }

    /// Peak bytes allocated on a device.
    pub fn device_mem_peak(&self, device: u32) -> u64 {
        self.inner.borrow().devices[device as usize]
            .mem
            .borrow()
            .pool()
            .high_watermark()
    }

    /// Every decision the runtime took so far, in the order it took
    /// them: degradations, straggler rescues, peer copies, integrity
    /// events, pipelined pieces and `spread_schedule(auto)` profiles.
    pub fn journal(&self) -> Vec<Event> {
        self.inner.borrow().journal.clone()
    }

    /// The journal records of one type, in journal order — e.g.
    /// `rt.events::<RescueRecord>()`.
    pub fn events<T: JournalRecord>(&self) -> Vec<T> {
        let inner = self.inner.borrow();
        inner.journal.iter().filter_map(T::of).cloned().collect()
    }

    /// The current adaptive weights for a construct key (normalized to
    /// sum to the device count), or `None` before its first completed
    /// launch.
    pub fn adaptive_weights(&self, key: &str) -> Option<Vec<f64>> {
        self.inner
            .borrow()
            .profiles
            .current(key)
            .map(<[f64]>::to_vec)
    }

    /// Largest contiguous free block on a device (fragmentation probe).
    pub fn device_mem_largest_free(&self, device: u32) -> u64 {
        self.inner.borrow().devices[device as usize]
            .mem
            .borrow()
            .pool()
            .largest_free_block()
    }

    /// The interconnect model (capacity utilization queries for
    /// instrumentation and ablations).
    pub fn flownet(&self) -> SharedFlowNet {
        self.inner.borrow().flownet.clone()
    }

    /// The sections currently mapped on a device (diagnostics): section,
    /// reference count, dying flag.
    pub fn mapped_sections(&self, device: u32) -> Vec<(Section, u32, bool)> {
        self.inner.borrow().presence[device as usize]
            .iter()
            .map(|(_, e)| (e.section, e.refcount, e.dying))
            .collect()
    }

    /// A canonical snapshot of every device's mapping table: per device,
    /// the live `(section, refcount)` pairs sorted by `(array, start)`.
    /// Dying entries are excluded — they are already released from the
    /// program's point of view. `spread-check` compares this against the
    /// oracle's presence model after every program.
    pub fn mapping_snapshot(&self) -> Vec<Vec<(Section, u32)>> {
        let inner = self.inner.borrow();
        inner
            .presence
            .iter()
            .map(|table| {
                let mut v: Vec<(Section, u32)> = table
                    .iter()
                    .filter(|(_, e)| !e.dying)
                    .map(|(_, e)| (e.section, e.refcount))
                    .collect();
                v.sort_by_key(|(s, _)| (s.array.0, s.start, s.len));
                v
            })
            .collect()
    }

    /// Devices permanently lost so far — by a planned loss, an
    /// escalated transient streak, or an integrity-mismatch quarantine.
    /// Empty without a fault plan.
    pub fn lost_devices(&self) -> Vec<u32> {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .map(|c| c.lost_devices())
            .unwrap_or_default()
    }
}

/// The directive-issuing handle. Obtained from [`Runtime::scope`] or
/// received by host-task bodies.
pub struct Scope<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) inner: &'a Rc<RefCell<Inner>>,
}

impl Scope<'_> {
    /// Register a host array.
    pub fn host_array(&mut self, name: impl Into<String>, len: usize) -> HostArray {
        self.inner.borrow_mut().host.register(name, len)
    }

    /// Fill a host array by index.
    pub fn fill_host(&mut self, h: HostArray, f: impl Fn(usize) -> f64) {
        self.inner.borrow().host.fill_with(h, f);
    }

    /// Copy out a host array.
    pub fn snapshot_host(&self, h: HostArray) -> Vec<f64> {
        self.inner.borrow().host.snapshot(h)
    }

    /// Run `f` with an immutable view of a host array.
    pub fn with_host<R>(&self, h: HostArray, f: impl FnOnce(&[f64]) -> R) -> R {
        self.inner.borrow().host.with(h, f)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.inner.borrow().devices.len()
    }

    /// Submit a task in the current context. Used by the directive
    /// builders; `spec.parent`/`spec.group` are overridden from context.
    pub(crate) fn submit(&mut self, mut spec: TaskSpec, action: Action) -> TaskId {
        let (id, ready) = {
            let mut inner = self.inner.borrow_mut();
            spec.parent = inner.current_parent;
            if spec.group.is_none() {
                spec.group = inner.current_group;
            }
            let (id, ready) = inner.graph.create(spec);
            inner.actions.insert(id, action);
            (id, ready)
        };
        if ready {
            schedule_start(self.sim, self.inner, id);
        }
        id
    }

    /// Drain until `cond` holds on the runtime state. Fails with
    /// [`RtError::Deadlock`] if the simulator goes idle first, or with
    /// [`RtError::Timeout`] if a configured watchdog expires in virtual
    /// time before the condition holds.
    ///
    /// The watchdog is *progress-aware*: its window measures time since
    /// the last task completion, not since the drain began. A run that
    /// is slow but still finishing tasks (a straggling device, a long
    /// retry ladder) never trips it; a wedged run — nothing completing
    /// for a full window — still does.
    pub(crate) fn drain_until(
        &mut self,
        cond: impl Fn(&Inner) -> bool,
        what: &str,
    ) -> Result<(), RtError> {
        let mut window_start = self.sim.now();
        let (watchdog, mut last_finished) = {
            let inner = self.inner.borrow();
            (inner.watchdog, inner.graph.finished_total())
        };
        loop {
            {
                let inner = self.inner.borrow();
                if let Some(e) = &inner.error {
                    return Err(e.clone());
                }
                if cond(&inner) {
                    // Quiescence reached: validate every device's live
                    // mapping state against its `spread-semantics`
                    // mirror (no-op in release builds).
                    for table in &inner.presence {
                        table.debug_validate();
                    }
                    return Ok(());
                }
                let finished = inner.graph.finished_total();
                if finished != last_finished {
                    last_finished = finished;
                    window_start = self.sim.now();
                }
            }
            if let Some(limit) = watchdog {
                let waited = self.sim.now() - window_start;
                if waited > limit {
                    let err = RtError::Timeout {
                        waiting_for: what.to_string(),
                        waited,
                    };
                    self.inner.borrow_mut().error.get_or_insert(err.clone());
                    return Err(err);
                }
            }
            if !self.sim.step() {
                let err = RtError::Deadlock {
                    waiting_for: what.to_string(),
                };
                self.inner.borrow_mut().error.get_or_insert(err.clone());
                return Err(err);
            }
        }
    }

    /// Block until a specific task finishes.
    pub fn drain_task(&mut self, id: TaskId) -> Result<(), RtError> {
        self.drain_until(|inner| inner.graph.is_finished(id), "task completion")
    }

    /// Block until every task has finished.
    pub fn drain_all(&mut self) -> Result<(), RtError> {
        self.drain_until(|inner| inner.graph.unfinished() == 0, "all tasks")
    }

    /// `#pragma omp taskgroup { f }` — tasks created by `f` (and their
    /// descendants) complete before this returns.
    pub fn taskgroup<R>(&mut self, f: impl FnOnce(&mut Scope<'_>) -> R) -> Result<R, RtError> {
        let (g, saved) = {
            let mut inner = self.inner.borrow_mut();
            let g = inner.graph.group_create();
            let saved = inner.current_group.replace(g);
            (g, saved)
        };
        let r = f(self);
        self.inner.borrow_mut().current_group = saved;
        self.drain_until(|inner| inner.graph.group_is_empty(g), "taskgroup")?;
        Ok(r)
    }

    /// `#pragma omp taskwait` — wait for the current context's child
    /// tasks.
    pub fn taskwait(&mut self) -> Result<(), RtError> {
        let parent = self.inner.borrow().current_parent;
        self.drain_until(
            move |inner| inner.graph.unfinished_children(parent) == 0,
            "taskwait",
        )
    }

    /// Create a taskgroup *without* waiting on it — the building block
    /// of asynchronous (continuation-style) pipelines. Populate it with
    /// [`Scope::with_group`]; gate continuations on it with
    /// [`Scope::task_chained`].
    pub fn group_create(&mut self) -> GroupId {
        self.inner.borrow_mut().graph.group_create()
    }

    /// Run `f` with `g` as the current taskgroup: tasks created inside
    /// join `g`. Does **not** wait (unlike [`Scope::taskgroup`]).
    pub fn with_group<R>(&mut self, g: GroupId, f: impl FnOnce(&mut Scope<'_>) -> R) -> R {
        let saved = self.inner.borrow_mut().current_group.replace(g);
        let r = f(self);
        self.inner.borrow_mut().current_group = saved;
        r
    }

    /// A host task that starts only after every task in `preds` has
    /// finished *and* (if given) `gate` is empty — the asynchronous
    /// alternative to blocking on a taskgroup from inside a task.
    pub fn task_chained(
        &mut self,
        label: impl Into<String>,
        preds: Vec<TaskId>,
        gate: Option<GroupId>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        let mut spec = TaskSpec::new(label.into());
        spec.extra_preds = preds;
        spec.gate_group = gate;
        self.submit(spec, host_task_action(f))
    }

    /// `#pragma omp task` — an asynchronous host task. The body receives
    /// its own [`Scope`] and may issue any directive (including blocking
    /// ones).
    pub fn task(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        self.task_chained(label, Vec::new(), None, f)
    }

    /// `#pragma omp task depend(…)` — a host task ordered against its
    /// siblings through array-section dependences, like the device
    /// tasks. `ins`/`outs` are the `depend(in: …)`/`depend(out: …)`
    /// items.
    pub fn task_depend(
        &mut self,
        label: impl Into<String>,
        ins: Vec<Section>,
        outs: Vec<Section>,
        f: impl FnOnce(&mut Scope<'_>) + 'static,
    ) -> TaskId {
        let mut spec = TaskSpec::new(label.into());
        spec.wait_on = ins
            .iter()
            .map(|&s| (s, false))
            .chain(outs.iter().map(|&s| (s, true)))
            .collect();
        spec.publish = spec.wait_on.clone();
        spec.fp_reads = ins.into_iter().map(crate::task::FpAccess::host).collect();
        spec.fp_writes = outs.into_iter().map(crate::task::FpAccess::host).collect();
        self.submit(spec, host_task_action(f))
    }

    /// `#pragma omp taskloop num_tasks(n)` — split `range` into `n`
    /// contiguous blocks, one host task each, and (implicit taskgroup)
    /// wait for all of them.
    pub fn taskloop(
        &mut self,
        label: &str,
        range: Range<usize>,
        num_tasks: usize,
        body: impl Fn(&mut Scope<'_>, usize) + 'static,
    ) -> Result<(), RtError> {
        let body = Rc::new(body);
        self.taskgroup(|scope| {
            let n = range.len();
            if n == 0 {
                return;
            }
            let nt = num_tasks.clamp(1, n);
            for t in 0..nt {
                let lo = range.start + t * n / nt;
                let hi = range.start + (t + 1) * n / nt;
                let body = Rc::clone(&body);
                scope.task(format!("{label}[{t}]"), move |s| {
                    for i in lo..hi {
                        body(s, i);
                    }
                });
            }
        })
    }

    /// Footprint races observed so far.
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().graph.races().to_vec()
    }

    /// Poison the runtime with an error discovered outside an action
    /// (e.g. by a directive layer running inside a host task, where the
    /// error cannot propagate through a `Result`). The first recorded
    /// error wins; subsequent drains return it.
    pub fn fail(&mut self, err: RtError) {
        self.inner.borrow_mut().error.get_or_insert(err);
    }

    /// Devices permanently lost so far (empty without a fault plan).
    pub fn lost_devices(&self) -> Vec<u32> {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .map(|c| c.lost_devices())
            .unwrap_or_default()
    }

    /// True if `device` is permanently lost.
    pub fn is_device_lost(&self, device: u32) -> bool {
        self.inner
            .borrow()
            .fault
            .as_ref()
            .is_some_and(|c| c.is_lost(device))
    }

    /// The trace recorder (recovery layers record redistribution spans).
    pub fn trace(&self) -> TraceRecorder {
        self.inner.borrow().trace.clone()
    }

    /// Bytes of device memory an admission planner may count on for
    /// `device` *now*: capacity, minus live program allocations, minus
    /// every OOM-pressure window that is still outstanding (active or
    /// forecast). Injector-held bytes inside the pool's `used` figure
    /// are subtracted back out so active windows are not counted twice.
    /// Returns 0 for a lost device.
    pub fn device_headroom(&self, device: u32) -> u64 {
        let now = self.sim.now();
        let inner = self.inner.borrow();
        let d = device as usize;
        if d >= inner.devices.len() {
            return 0;
        }
        if let Some(ctx) = &inner.fault {
            if ctx.is_lost(device) {
                return 0;
            }
        }
        let pool = inner.devices[d].mem.borrow();
        let capacity = pool.pool().capacity();
        let used = pool.pool().used();
        let program_used = used.saturating_sub(inner.injector_live[d]);
        let outstanding = inner
            .fault
            .as_ref()
            .map_or(0, |ctx| ctx.oom_outstanding(device, now));
        capacity
            .saturating_sub(program_used)
            .saturating_sub(outstanding)
    }

    /// The configured spill staging-buffer size.
    pub fn spill_staging_bytes(&self) -> u64 {
        self.inner.borrow().spill_staging_bytes
    }

    /// Record a decision: appended to the journal and mirrored as its
    /// marker span(s) on the trace. Returns the event's journal index —
    /// the commit gate of a rescue fills in `winner`/`commits` there.
    pub fn record(&mut self, event: Event) -> usize {
        journal::record(self.sim.now(), &mut self.inner.borrow_mut(), event)
    }

    /// Every decision the runtime took so far, in the order it took
    /// them (see [`Runtime::journal`]).
    pub fn journal(&self) -> Vec<Event> {
        self.inner.borrow().journal.clone()
    }

    /// The weights a `spread_schedule(auto)` construct keyed `key`
    /// should use for its next launch over `k` devices: the adapted
    /// vector when one exists for this key and device count, an equal
    /// split otherwise.
    pub fn adaptive_weights(&self, key: &str, k: usize) -> Vec<f64> {
        self.inner.borrow().profiles.weights(key, k)
    }

    /// The pipeline depth a `spread_overlap(auto)` construct keyed
    /// `key` should use for its next launch: unexplored candidate
    /// depths first, then the learned (EWMA argmin) best depth.
    pub fn adaptive_depth(&self, key: &str) -> u32 {
        self.inner.borrow().profiles.next_depth(key)
    }

    /// Feed one completed `spread_overlap(auto)` launch back into the
    /// per-key depth model: the construct keyed `key` ran with pipeline
    /// `depth` from `t0` to now.
    pub fn record_overlap_depth(&mut self, key: &str, depth: u32, t0: SimTime) {
        let dur = (self.sim.now() - t0).as_nanos() as f64;
        self.inner
            .borrow_mut()
            .profiles
            .record_depth(key, depth, dur);
    }

    /// Aggregate the trace window `[t0, now)` into a
    /// [`ConstructProfile`](spread_trace::ConstructProfile) for a
    /// completed `spread_schedule(auto)` launch and feed it to the
    /// damped weight update. With tracing disabled the profile is still
    /// recorded (all-zero breakdowns) but the weights stay unchanged —
    /// `auto` degrades to a plain equal `static` split.
    pub fn record_construct_profile(
        &mut self,
        key: &str,
        devices: &[u32],
        weights: &[f64],
        round: usize,
        t0: SimTime,
    ) {
        let t1 = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let spans = inner.trace.snapshot();
        let device_profiles = spread_trace::profile_window(&spans, devices, t0, t1);
        let launch = inner.profiles.next_launch(key);
        let profile = spread_trace::ConstructProfile {
            key: key.to_string(),
            launch,
            start: t0,
            end: t1,
            devices: device_profiles,
            weights: weights.to_vec(),
            round,
        };
        inner.profiles.record(&profile);
        journal::record(t1, &mut inner, Event::Profile(profile));
    }

    /// Register `handler` as the recovery handler of every task in
    /// `ids` (the phases of one construct). If any of them fails while
    /// `device` is permanently lost, the handler runs once with a fresh
    /// scope, the faulted task id, and the error; the other registered
    /// tasks are left to the handler (typically
    /// [`Scope::neutralize_task`]). The handler — or a completion chain
    /// it builds — must eventually [`Scope::force_complete`] the
    /// faulted task, or the program deadlocks.
    ///
    /// Failures unrelated to the registered device loss still poison
    /// the runtime: resilience routes around dead hardware, not bugs.
    pub fn on_task_fault(
        &mut self,
        ids: &[TaskId],
        device: u32,
        handler: impl FnOnce(&mut Scope<'_>, TaskId, RtError) + 'static,
    ) {
        let handler: RecoveryHandler = Rc::new(RefCell::new(Some(Box::new(handler))));
        let mut inner = self.inner.borrow_mut();
        for &id in ids {
            inner.recoverers.insert(
                id,
                Recoverer {
                    device,
                    on_oom: false,
                    on_integrity: false,
                    handler: Rc::clone(&handler),
                },
            );
        }
    }

    /// Like [`Scope::on_task_fault`], but the handler additionally
    /// fires if a registered task fails with [`RtError::OutOfMemory`]
    /// — the hook of the memory-pressure ladder: after the pressure
    /// enter path exhausts its retries, the chunk is handed to the
    /// split/spill coordinator instead of poisoning the runtime.
    pub fn on_task_oom(
        &mut self,
        ids: &[TaskId],
        device: u32,
        handler: impl FnOnce(&mut Scope<'_>, TaskId, RtError) + 'static,
    ) {
        let handler: RecoveryHandler = Rc::new(RefCell::new(Some(Box::new(handler))));
        let mut inner = self.inner.borrow_mut();
        for &id in ids {
            inner.recoverers.insert(
                id,
                Recoverer {
                    device,
                    on_oom: true,
                    on_integrity: false,
                    handler: Rc::clone(&handler),
                },
            );
        }
    }

    /// Like [`Scope::on_task_fault`], but the handler additionally
    /// fires if a registered task fails with
    /// [`RtError::IntegrityViolation`] — the hook of
    /// `spread_integrity(heal)`: a digest mismatch at a trust boundary
    /// hands the chunk back for re-execution from the unharmed host
    /// image instead of poisoning the runtime. (The loss arm stays
    /// active too, so a quarantined device — its mismatch streak
    /// tripped the circuit breaker — routes through the same handler.)
    pub fn on_task_integrity(
        &mut self,
        ids: &[TaskId],
        device: u32,
        handler: impl FnOnce(&mut Scope<'_>, TaskId, RtError) + 'static,
    ) {
        let handler: RecoveryHandler = Rc::new(RefCell::new(Some(Box::new(handler))));
        let mut inner = self.inner.borrow_mut();
        for &id in ids {
            inner.recoverers.insert(
                id,
                Recoverer {
                    device,
                    on_oom: false,
                    on_integrity: true,
                    handler: Rc::clone(&handler),
                },
            );
        }
    }

    /// Turn a not-yet-started task into a no-op: its action is replaced
    /// (it will touch nothing when its turn comes) and its footprints
    /// are erased so replacement work does not race against it. Its
    /// dependence edges survive, so the construct's completion still
    /// cascades in order.
    pub fn neutralize_task(&mut self, id: TaskId) {
        let mut inner = self.inner.borrow_mut();
        if inner.graph.is_finished(id) {
            return;
        }
        inner
            .actions
            .insert(id, Box::new(|_, _, _| Ok(Completion::Done)));
        inner.graph.clear_footprints(id);
    }

    /// Erase a faulted *running* task's footprints: its operation was
    /// aborted by the fault, so replacement work covering the same
    /// sections is not a race.
    pub fn forgive_task_footprints(&mut self, id: TaskId) {
        self.inner.borrow_mut().graph.clear_footprints(id);
    }

    /// Complete a faulted task from a recovery handler, releasing its
    /// successors. Only valid for a task that is running and will never
    /// complete on its own (its device died under it).
    pub fn force_complete(&mut self, id: TaskId) {
        complete_task(self.sim, self.inner, id);
    }

    /// Whether a task has finished.
    pub fn is_task_finished(&self, id: TaskId) -> bool {
        self.inner.borrow().graph.is_finished(id)
    }

    /// Schedule `f` to run with a fresh [`Scope`] at virtual time `at`
    /// (clamped to now). The straggler monitor uses this for its
    /// progress deadline; the callback is skipped if the runtime was
    /// dropped or poisoned in the meantime.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut Scope<'_>) + 'static) {
        let weak = Rc::downgrade(self.inner);
        let at = at.max(self.sim.now());
        self.sim.schedule_at(
            at,
            Box::new(move |sim| {
                if let Some(rc) = weak.upgrade() {
                    if rc.borrow().error.is_some() {
                        return;
                    }
                    let mut scope = Scope { sim, inner: &rc };
                    f(&mut scope);
                }
            }),
        );
    }

    /// Try to cancel the kernel of `task` while it is *running* on
    /// `device`'s compute engine. Returns true on a hit: the engine slot
    /// is freed and the op's completion callback will never fire — the
    /// caller owns finishing the task (the kernel body's device-side
    /// effects already ran at op start, so the device bytes are whole).
    /// Queued or already-completed kernels are not touched (false).
    pub fn cancel_kernel(&mut self, device: u32, task: TaskId) -> bool {
        let d = device as usize;
        let engine = {
            let inner = self.inner.borrow();
            if d >= inner.devices.len() {
                return false;
            }
            inner.devices[d].compute.clone()
        };
        engine.cancel_running(self.sim, task.0)
    }
}

/// Build the action of a host task: swaps the parent/group context, runs
/// the body with a fresh [`Scope`], restores.
fn host_task_action(f: impl FnOnce(&mut Scope<'_>) + 'static) -> Action {
    Box::new(move |sim, inner_rc, id| {
        let saved = {
            let mut inner = inner_rc.borrow_mut();
            let my_group = inner.graph.group_of(id);
            let sp = inner.current_parent.replace(id);
            let sg = std::mem::replace(&mut inner.current_group, my_group);
            (sp, sg)
        };
        {
            let mut scope = Scope {
                sim,
                inner: inner_rc,
            };
            f(&mut scope);
        }
        {
            let mut inner = inner_rc.borrow_mut();
            inner.current_parent = saved.0;
            inner.current_group = saved.1;
        }
        Ok(Completion::Done)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_devices::DeviceSpec;

    fn small_rt() -> Runtime {
        let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(1 << 20), 1e9, 1.5e9);
        Runtime::new(RuntimeConfig::new(topo).with_team_threads(2))
    }

    #[test]
    fn host_tasks_run_and_finish() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l1 = log.clone();
        s.task("a", move |_| l1.borrow_mut().push("a"));
        let l2 = log.clone();
        s.task("b", move |_| l2.borrow_mut().push("b"));
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn taskgroup_waits_for_descendants() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l = log.clone();
        s.taskgroup(move |scope| {
            let l2 = l.clone();
            scope.task("outer", move |inner_scope| {
                let l3 = l2.clone();
                // A bare child task: the group must wait for it too.
                inner_scope.task("nested", move |_| l3.borrow_mut().push(2));
                l2.borrow_mut().push(1);
            });
        })
        .unwrap();
        log.borrow_mut().push(3);
        rt.scope().drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn taskwait_inside_task() {
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let l = log.clone();
        s.task("parent", move |scope| {
            let l2 = l.clone();
            scope.task("child", move |_| l2.borrow_mut().push(1));
            scope.taskwait().unwrap();
            l.borrow_mut().push(2);
        });
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn taskloop_blocks_and_covers() {
        let mut rt = small_rt();
        let hits: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = rt.scope();
        let h = hits.clone();
        s.taskloop("tl", 0..10, 3, move |_, i| h.borrow_mut().push(i))
            .unwrap();
        // Blocking: all iterations done on return.
        let mut got = hits.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn taskloop_empty_range() {
        let mut rt = small_rt();
        let mut s = rt.scope();
        s.taskloop("tl", 5..5, 4, move |_, _| panic!("no iterations"))
            .unwrap();
    }

    #[test]
    fn recursive_tasks() {
        // The Double Buffering pattern: a task spawning its successor.
        let mut rt = small_rt();
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        fn recurse(scope: &mut Scope<'_>, i: usize, log: Rc<RefCell<Vec<usize>>>) {
            if i >= 5 {
                return;
            }
            log.borrow_mut().push(i);
            let l = log.clone();
            scope.task(format!("r{i}"), move |s| recurse(s, i + 1, l));
        }
        let mut s = rt.scope();
        let l = log.clone();
        s.task("r0", move |scope| recurse(scope, 0, l));
        s.drain_all().unwrap();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn deadlock_reported() {
        let mut rt = small_rt();
        let mut s = rt.scope();
        // A task gated on a group that never empties (group of itself
        // cannot — simulate by waiting on a task that never finishes:
        // a task whose action is Async but never completes).
        let spec = TaskSpec::new("never");
        let action: Action = Box::new(|_, _, _| Ok(Completion::Async));
        let id = s.submit(spec, action);
        let err = s.drain_task(id).unwrap_err();
        assert!(matches!(err, RtError::Deadlock { .. }));
        // Poisoned thereafter.
        assert!(matches!(s.drain_all(), Err(RtError::Deadlock { .. })));
    }

    #[test]
    fn elapsed_starts_at_zero() {
        let rt = small_rt();
        assert_eq!(rt.elapsed(), SimDuration::ZERO);
    }
}
