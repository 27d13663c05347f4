//! The `target spread` executable directive (standalone and combined).
//!
//! `target spread` offloads a loop across multiple devices: the
//! iteration space is split into chunks by the `spread_schedule`, chunks
//! are distributed round-robin over the `devices(…)` list, and each
//! chunk becomes one single-device offload whose `map`/`depend` clauses
//! are evaluated with that chunk's `omp_spread_start`/`omp_spread_size`
//! (paper §III-B.1, Listing 3).
//!
//! Adding `num_teams`/`num_threads` gives the combined
//! `target spread teams distribute parallel for` (Listing 4): the
//! intra-device clauses apply *per device*.
//!
//! Without `nowait` the directive blocks until every chunk completes
//! (the "implicit taskgroup" design option of §IX); with `nowait` the
//! chunk tasks run asynchronously and synchronize through `depend`
//! clauses and enclosing `taskgroup`s, exactly like the paper's Somier
//! implementations.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

use spread_rt::directives::Target;
use spread_rt::{IntegrityMode, KernelSpec, RtError, Scope, Section, TaskId};

use crate::chunk::ChunkCtx;
use crate::clauses::{ClauseSet, OverlapPolicy, SpreadClausesExt};
use crate::pressure::{self, Placement, PressureCoordinator, PressurePolicy};
use crate::resilience::{Coordinator, ResiliencePolicy};
use crate::schedule::{distribute, SpreadSchedule};
use crate::spread_map::{SectionOf, SpreadMap};
use crate::straggler::StragglerPolicy;
use crate::testing::Canary;

/// A `depend` clause item over the spread placeholders.
#[derive(Clone)]
pub(crate) struct SpreadDep {
    pub array: spread_rt::HostArray,
    pub expr: SectionOf,
}

impl SpreadDep {
    pub(crate) fn at(&self, c: ChunkCtx) -> Section {
        Section::from_range(self.array.id(), (self.expr)(c))
    }
}

/// A test on a construct's clause set.
type ClauseTest = fn(&ClauseSet) -> bool;

/// One row of the clause-composition table (DESIGN.md §14): when its
/// clause is on a construct, what the clause requires of the construct
/// and which clause sets it rejects. [`TargetSpread::validate`] walks
/// the rows in order and reports the first violation.
struct Rule {
    /// The clause, as the rejection message names it.
    clause: &'static str,
    /// Whether the clause is on the construct.
    active: ClauseTest,
    /// Requires a static distribution: dynamic chunks have no stable
    /// piece → device identity to rebuild, rescue, admit or sub-slice.
    needs_static: bool,
    /// Requires a blocking construct: its drain owns the redo, rescue,
    /// admission, staged-commit or profile window.
    needs_blocking: bool,
    /// Rejected when a predicate holds; the text completes the message.
    conflicts: &'static [(ClauseTest, &'static str)],
}

fn schedule_auto(c: &ClauseSet) -> bool {
    matches!(c.schedule, Some(SpreadSchedule::Auto { .. }))
}

fn pressure_on(c: &ClauseSet) -> bool {
    c.pressure != PressurePolicy::Fail
}

/// The clause-composition table: the source of the DESIGN.md §14
/// matrix, enforced cell by cell by `crates/core/tests/clause_matrix.rs`.
const RULES: &[Rule] = &[
    // The profile window closes at construct completion.
    Rule {
        clause: "spread_schedule(auto)",
        active: schedule_auto,
        needs_static: false,
        needs_blocking: true,
        conflicts: &[],
    },
    // Special row: the depth controller learns per construct key.
    Rule {
        clause: "spread_overlap(auto)",
        active: |c| c.overlap == OverlapPolicy::Auto,
        needs_static: false,
        needs_blocking: false,
        conflicts: &[(
            |c| !schedule_auto(c),
            "requires spread_schedule(auto) on the same construct",
        )],
    },
    Rule {
        clause: "spread_resilience(redistribute)",
        active: |c| c.resilience == ResiliencePolicy::Redistribute,
        needs_static: true,
        needs_blocking: false,
        conflicts: &[],
    },
    // Special row: a pipeline has at least one stage.
    Rule {
        clause: "spread_overlap(0)",
        active: |c| c.overlap == OverlapPolicy::Depth(0),
        needs_static: false,
        needs_blocking: false,
        conflicts: &[(|_| true, "is invalid (depth must be ≥ 1)")],
    },
    // Admission budgets whole pieces; splitting or spilling a piece
    // mid-pipeline would invalidate both plans.
    Rule {
        clause: "spread_overlap(…)",
        active: |c| c.overlap != OverlapPolicy::Off,
        needs_static: true,
        needs_blocking: true,
        conflicts: &[(
            pressure_on,
            "is incompatible with spread_pressure(split|spill)",
        )],
    },
    Rule {
        clause: "spread_straggler(steal|replicate)",
        active: |c| c.straggler != StragglerPolicy::Wait,
        needs_static: true,
        needs_blocking: true,
        conflicts: &[],
    },
    // A heal redo racing a rescue of the same piece would
    // double-arbitrate its commit, and healing replays whole phases the
    // pressure ladder splits. `verify` composes with both.
    Rule {
        clause: "spread_integrity(heal)",
        active: |c| c.integrity == IntegrityMode::Heal,
        needs_static: true,
        needs_blocking: true,
        conflicts: &[
            (
                |c| c.straggler != StragglerPolicy::Wait,
                "is incompatible with spread_straggler(steal|replicate); use \
                 spread_integrity(verify)",
            ),
            (
                pressure_on,
                "is incompatible with spread_pressure(split|spill); use \
                 spread_integrity(verify)",
            ),
        ],
    },
    // Both clauses re-place chunks through their own recovery
    // coordinators.
    Rule {
        clause: "spread_pressure(split|spill)",
        active: pressure_on,
        needs_static: true,
        needs_blocking: true,
        conflicts: &[(
            |c| c.resilience == ResiliencePolicy::Redistribute,
            "is incompatible with spread_resilience(redistribute)",
        )],
    },
];

/// Builder for `#pragma omp target spread [teams distribute parallel
/// for]`.
#[derive(Clone)]
pub struct TargetSpread {
    devices: Vec<u32>,
    clauses: ClauseSet,
    maps: Vec<SpreadMap>,
    nowait: bool,
    dep_ins: Vec<SpreadDep>,
    dep_outs: Vec<SpreadDep>,
    num_teams: Option<u32>,
    num_threads: Option<u32>,
    serial: bool,
    canary: Option<Canary>,
}

impl SpreadClausesExt for TargetSpread {
    fn clause_set_mut(&mut self) -> &mut ClauseSet {
        &mut self.clauses
    }
}

impl TargetSpread {
    /// Start building with the `devices(…)` clause. The distribution
    /// order is the list order, not the device-id order.
    pub fn devices(devices: impl IntoIterator<Item = u32>) -> Self {
        TargetSpread {
            devices: devices.into_iter().collect(),
            clauses: ClauseSet {
                schedule: Some(SpreadSchedule::static_chunk(1)),
                ..ClauseSet::default()
            },
            maps: Vec::new(),
            nowait: false,
            dep_ins: Vec::new(),
            dep_outs: Vec::new(),
            num_teams: None,
            num_threads: None,
            serial: false,
            canary: None,
        }
    }

    /// Add a spread map item.
    pub fn map(mut self, m: SpreadMap) -> Self {
        self.maps.push(m);
        self
    }

    /// Add several spread map items.
    pub fn maps(mut self, items: impl IntoIterator<Item = SpreadMap>) -> Self {
        self.maps.extend(items);
        self
    }

    /// `nowait` — chunk tasks run asynchronously.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// `depend(in: a[expr])` — per-chunk input dependence (the
    /// data-driven dependence style of §III-B.1).
    pub fn depend_in(
        mut self,
        array: spread_rt::HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + Send + Sync + 'static,
    ) -> Self {
        self.dep_ins.push(SpreadDep {
            array,
            expr: std::sync::Arc::new(expr),
        });
        self
    }

    /// `depend(out: a[expr])` — per-chunk output dependence.
    pub fn depend_out(
        mut self,
        array: spread_rt::HostArray,
        expr: impl Fn(ChunkCtx) -> Range<usize> + Send + Sync + 'static,
    ) -> Self {
        self.dep_outs.push(SpreadDep {
            array,
            expr: std::sync::Arc::new(expr),
        });
        self
    }

    /// `num_teams(n)` — applied per device (combined directive).
    pub fn num_teams(mut self, n: u32) -> Self {
        self.num_teams = Some(n);
        self
    }

    /// Threads per team — applied per device (combined directive).
    pub fn num_threads(mut self, n: u32) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Standalone `target spread` (no `teams distribute parallel for`):
    /// the chunk loop runs on a single device lane.
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.clauses.resilience
    }

    /// The active pressure policy.
    pub fn pressure(&self) -> PressurePolicy {
        self.clauses.pressure
    }

    /// The active straggler policy.
    pub fn straggler(&self) -> StragglerPolicy {
        self.clauses.straggler
    }

    /// The active integrity mode.
    pub fn integrity(&self) -> IntegrityMode {
        self.clauses.integrity
    }

    /// The active overlap policy (`spread_overlap(…)`; see
    /// [`OverlapPolicy`]).
    pub fn overlap(&self) -> OverlapPolicy {
        self.clauses.overlap
    }

    /// The active straggler detection threshold β.
    pub(crate) fn straggler_beta(&self) -> f64 {
        self.clauses.straggler_beta
    }

    /// Arm a canary (behind the `testing` module's injection hooks, see
    /// [`crate::testing`]); the field stays module-private.
    pub(crate) fn arm(mut self, canary: Canary) -> Self {
        self.canary = Some(canary);
        self
    }

    /// Whether `canary` is armed.
    pub(crate) fn armed(&self, canary: Canary) -> bool {
        self.canary == Some(canary)
    }

    /// The mapped-footprint bytes of the piece `[start, start + len)` —
    /// the sum over the construct's map clauses of their section lengths
    /// × 8 (halo arithmetic included). This is the figure the pressure
    /// planner budgets against device headroom; tooling (the
    /// `spread-check` oracle) calls it to predict admission exactly.
    pub fn footprint_bytes(&self, start: usize, len: usize) -> u64 {
        let c = ChunkCtx::new(start, len);
        self.maps.iter().map(|m| (m.expr)(c).len() as u64 * 8).sum()
    }

    /// The `devices(…)` list, in distribution order (introspection for
    /// tooling such as the `spread-check` conformance harness).
    pub fn device_list(&self) -> &[u32] {
        &self.devices
    }

    /// The active `spread_schedule(…)` clause.
    pub fn schedule(&self) -> &SpreadSchedule {
        self.clauses
            .schedule
            .as_ref()
            .expect("TargetSpread always carries a schedule")
    }

    /// Whether `nowait` was requested.
    pub fn is_nowait(&self) -> bool {
        self.nowait
    }

    /// The chunks this construct would create for `range` — the exact
    /// `distribute` call `parallel_for` makes for static schedules, so a
    /// model (or a pretty-printer) can predict chunk → device placement
    /// without launching anything. Dynamic schedules return chunks with
    /// `device == None` (assignment happens at claim time).
    pub fn plan_chunks(&self, range: Range<usize>) -> Vec<crate::schedule::Chunk> {
        distribute(range, &self.devices, self.schedule())
    }

    /// The per-chunk single-device construct for chunk `c` on `device`.
    pub(crate) fn build_target(&self, device: u32, c: ChunkCtx) -> Target {
        let mut t = self.build_rescue_target(device, c);
        if let Some(depth) = self.clauses.overlap.depth().filter(|&d| d > 1) {
            t = t.overlap(depth);
            if self.armed(Canary::OverlapLeak) {
                t = t.overlap_leak();
            }
        }
        for d in &self.dep_ins {
            t = t.depend_in(d.at(c));
        }
        for d in &self.dep_outs {
            t = t.depend_out(d.at(c));
        }
        t
    }

    /// Like [`Self::build_target`] but *without* the construct's
    /// `depend` clauses: a speculative rescue must race the original
    /// piece, not queue behind the dependences it publishes. Downstream
    /// synchronization still flows through the original's exit. The
    /// `spread_overlap` clause is also stripped: a rescue re-executes
    /// the **whole piece** un-pipelined, so first-commit-wins
    /// arbitration only ever sees whole-piece commits.
    pub(crate) fn build_rescue_target(&self, device: u32, c: ChunkCtx) -> Target {
        let mut t = Target::device(device)
            .nowait()
            .integrity(self.clauses.integrity);
        if self.serial {
            t = t.serial();
        } else {
            if let Some(n) = self.num_teams {
                t = t.num_teams(n);
            }
            if let Some(n) = self.num_threads {
                t = t.num_threads(n);
            }
        }
        for m in &self.maps {
            t = t.map(m.at(c));
        }
        t
    }

    /// Offload `kernel` over `range`, distributed across the devices.
    /// Returns the per-chunk construct task ids (for static schedules) —
    /// in chunk order.
    pub fn parallel_for(
        mut self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        if self.devices.is_empty() {
            return Err(RtError::InvalidDirective(
                "target spread: devices(…) must not be empty".into(),
            ));
        }
        self.validate()?;
        // Resolve `spread_schedule(auto)` into a concrete StaticWeighted
        // plan, so auto launches exactly where StaticWeighted does.
        let auto = if let Some(SpreadSchedule::Auto { key }) = &self.clauses.schedule {
            let key = key.clone();
            let weights = scope.adaptive_weights(&key, self.devices.len());
            let round = range.len().max(1);
            self.clauses.schedule = Some(SpreadSchedule::StaticWeighted {
                round,
                weights: weights.clone(),
            });
            Some((key, self.devices.clone(), weights, round, scope.now()))
        } else {
            None
        };
        // Resolve `spread_overlap(auto)` against the same construct key:
        // the ProfileStore explores depths {1, 2, 4} first, then keeps
        // the exponentially-weighted argmin of construct duration.
        let auto_depth = match &auto {
            Some((key, ..)) if self.clauses.overlap == OverlapPolicy::Auto => {
                let depth = scope.adaptive_depth(key);
                self.clauses.overlap = OverlapPolicy::Depth(depth);
                Some((key.clone(), depth, scope.now()))
            }
            _ => None,
        };
        let ids = if matches!(self.schedule(), SpreadSchedule::Dynamic { .. }) {
            self.launch_dynamic(scope, range, kernel)?
        } else {
            self.launch_static(scope, range, kernel)?
        };
        if let Some((key, devices, weights, round, t0)) = auto {
            scope.record_construct_profile(&key, &devices, &weights, round, t0);
        }
        if let Some((key, depth, t0)) = auto_depth {
            scope.record_overlap_depth(&key, depth, t0);
        }
        Ok(ids)
    }

    /// Check the clause set against [`RULES`]: the first violated row
    /// rejects the construct with [`RtError::InvalidDirective`].
    fn validate(&self) -> Result<(), RtError> {
        let dynamic = matches!(self.schedule(), SpreadSchedule::Dynamic { .. });
        for rule in RULES.iter().filter(|r| (r.active)(&self.clauses)) {
            let why = if rule.needs_static && dynamic {
                Some("requires a static schedule")
            } else if rule.needs_blocking && self.nowait {
                Some("requires a blocking construct")
            } else {
                rule.conflicts
                    .iter()
                    .find(|(when, _)| when(&self.clauses))
                    .map(|&(_, why)| why)
            };
            if let Some(why) = why {
                return Err(RtError::InvalidDirective(format!(
                    "target spread: {} {why}",
                    rule.clause
                )));
            }
        }
        Ok(())
    }

    /// The static-schedule launch. Pieces are the schedule's chunks or,
    /// under `spread_pressure(split|spill)`, the admission plan against
    /// live per-device headroom (with its degradation events recorded).
    /// Each device piece runs as one construct under the guards its
    /// clauses register; host pieces run through the spill executor. A
    /// blocking construct then drains every piece, and every rescue.
    fn launch_static(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        let chunks = distribute(range, &self.devices, self.schedule());
        let managed = self.clauses.pressure != PressurePolicy::Fail;
        let pieces: Vec<(Range<usize>, Placement)> = if managed {
            let headroom: HashMap<u32, u64> = self
                .devices
                .iter()
                .map(|&d| (d, scope.device_headroom(d)))
                .collect();
            let footprint = |start: usize, len: usize| self.footprint_bytes(start, len);
            let plan = pressure::plan_admission(
                &chunks,
                &self.devices,
                &headroom,
                &footprint,
                self.clauses.pressure,
            )?;
            for ev in pressure::degradation_events(&plan) {
                scope.record_degradation(ev);
            }
            plan.iter().map(|p| (p.range(), p.placement)).collect()
        } else {
            chunks
                .iter()
                .map(|c| {
                    let device = c.device.expect("static chunks are assigned");
                    (c.range(), Placement::Device(device))
                })
                .collect()
        };
        // Straggler rescue needs somewhere to rescue *to*: at least two
        // device pieces over at least two distinct devices (host spills
        // have no kernel to watch and no commit to arbitrate). Smaller
        // launches silently degrade to `wait`.
        let mut on_devices: Vec<u32> = pieces
            .iter()
            .filter_map(|(_, p)| match p {
                Placement::Device(d) => Some(*d),
                Placement::Host => None,
            })
            .collect();
        let device_pieces = on_devices.len();
        on_devices.sort_unstable();
        on_devices.dedup();
        let straggle = self.clauses.straggler != StragglerPolicy::Wait
            && device_pieces >= 2
            && on_devices.len() >= 2;
        let resilient = self.clauses.resilience == ResiliencePolicy::Redistribute;
        let heal = self.clauses.integrity == IntegrityMode::Heal;
        let this = Rc::new(self);
        let pressure = managed.then(|| PressureCoordinator::new(Rc::clone(&this), kernel.clone()));
        // Under `spread_integrity(heal)` the healer subsumes the
        // resilience coordinator: its handler covers device loss (real
        // or quarantine) *and* integrity violations, because the runtime
        // keeps a single recovery registration per task.
        let coord =
            (resilient && !heal).then(|| Coordinator::new(Rc::clone(&this), kernel.clone()));
        let healer = heal
            .then(|| crate::integrity::Healer::new(Rc::clone(&this), kernel.clone(), resilient));
        let monitor = straggle
            .then(|| crate::straggler::Monitor::new(Rc::clone(&this), kernel.clone(), scope.now()));
        let guarded = managed || coord.is_some() || healer.is_some() || monitor.is_some();
        let mut tail: HashMap<u32, TaskId> = HashMap::new();
        let mut ids = Vec::with_capacity(pieces.len());
        for (r, placement) in pieces {
            let Placement::Device(device) = placement else {
                ids.push(spread_rt::spill_chunk(
                    scope,
                    format!("spread-spill[{}..{})", r.start, r.end),
                    r,
                    kernel.clone(),
                    Vec::new(),
                    this.armed(Canary::DropLastSpillSlice),
                ));
                continue;
            };
            let (start, len) = (r.start, r.len());
            let mut t = this.build_target(device, ChunkCtx::new(start, len));
            if managed {
                // Same-device pieces serialize enter-after-exit: that
                // bounds the real memory peak by one piece per device
                // and re-establishes the §V-B gap ordering for
                // halo-overlapping neighbors.
                t = t.pressure_managed().after(tail.get(&device).copied());
            }
            let gate = monitor.as_ref().map(|_| spread_rt::CommitGate::new());
            if let Some(g) = &gate {
                t = t.commit_gate(g.clone(), 0);
            }
            if !guarded {
                ids.push(t.parallel_for(scope, r, kernel.clone())?);
                continue;
            }
            let phases = t.parallel_for_phases(scope, r, kernel.clone())?;
            if let Some(p) = &pressure {
                pressure::guard(scope, p, device, start, len, phases);
            }
            if let Some(c) = &coord {
                crate::resilience::guard(scope, c, device, start, len, phases);
            }
            if let Some(h) = &healer {
                crate::integrity::guard(scope, h, device, start, len, phases);
            }
            if let (Some(m), Some(g)) = (&monitor, gate) {
                crate::straggler::watch(scope, m, device, start, len, phases, g);
            }
            tail.insert(device, phases.exit);
            ids.push(phases.exit);
        }
        if !this.nowait {
            for &id in &ids {
                scope.drain_task(id)?;
            }
            if let Some(m) = &monitor {
                // Rescues launch from the deadline callback *during* the
                // drains above; wait for every one of them too (a rescue
                // cannot spawn further rescues, so one extra sweep per
                // batch converges).
                loop {
                    let pending = m.take_rescue_exits();
                    if pending.is_empty() {
                        break;
                    }
                    for id in pending {
                        scope.drain_task(id)?;
                    }
                }
            }
        }
        Ok(ids)
    }

    /// The dynamic-schedule extension: per device, an asynchronous chain
    /// of claim→offload→claim continuations over a shared chunk queue; a
    /// device takes the next chunk as soon as its previous one finishes,
    /// absorbing load imbalance. The returned task ids are per-device
    /// "drained" markers (one per device, finished when that device's
    /// chain runs dry).
    fn launch_dynamic(
        self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
    ) -> Result<Vec<TaskId>, RtError> {
        let chunks = distribute(range, &self.devices, self.schedule());
        let queue: Rc<RefCell<VecDeque<crate::schedule::Chunk>>> =
            Rc::new(RefCell::new(chunks.into_iter().collect()));
        let this = Rc::new(self);

        /// Claim the next chunk for `device`; on completion of its
        /// offload, claim again. `done_gate` collects the whole chain.
        fn claim_next(
            s: &mut Scope<'_>,
            this: &Rc<TargetSpread>,
            queue: &Rc<RefCell<VecDeque<crate::schedule::Chunk>>>,
            kernel: &KernelSpec,
            device: u32,
        ) {
            let next = queue.borrow_mut().pop_front();
            let Some(chunk) = next else { return };
            let c = ChunkCtx::new(chunk.start, chunk.len);
            let t = this.build_target(device, c); // nowait construct
            match t.parallel_for(s, chunk.range(), kernel.clone()) {
                Ok(construct_done) => {
                    let this = Rc::clone(this);
                    let queue = Rc::clone(queue);
                    let kernel = kernel.clone();
                    s.task_chained(
                        format!("spread-dyn-claim(dev{device})"),
                        vec![construct_done],
                        None,
                        move |s| claim_next(s, &this, &queue, &kernel, device),
                    );
                }
                Err(e) => s.fail(e),
            }
        }

        let start_chains = |scope: &mut Scope<'_>| {
            let mut chain_heads = Vec::with_capacity(this.devices.len());
            for &device in this.devices.iter() {
                let this2 = Rc::clone(&this);
                let queue = Rc::clone(&queue);
                let kernel = kernel.clone();
                let id = scope.task(format!("spread-dyn-start(dev{device})"), move |s| {
                    claim_next(s, &this2, &queue, &kernel, device);
                });
                chain_heads.push(id);
            }
            chain_heads
        };
        if this.nowait {
            // Chains join the caller's current taskgroup context; the
            // caller synchronizes with taskgroup/taskwait as usual.
            Ok(start_chains(scope))
        } else {
            // Blocking: a taskgroup waits for the chains and every
            // descendant claim/offload they spawn.
            scope.taskgroup(start_chains)
        }
    }

    /// Extension (§IX "support for reduction clauses among devices"):
    /// run the spread loop and reduce a per-iteration partials array
    /// across all devices on the host.
    ///
    /// `kernel` must write `partials[i]` for every iteration `i` (declare
    /// it as a `Write` arg with the identity section expression); this
    /// method appends the `map(from: partials[chunk])` clause, blocks
    /// until all chunks complete, and folds `partials[range]` with `op`.
    pub fn parallel_for_reduce(
        mut self,
        scope: &mut Scope<'_>,
        range: Range<usize>,
        kernel: KernelSpec,
        partials: spread_rt::HostArray,
        op: crate::reduction::ReduceOp,
    ) -> Result<f64, RtError> {
        self.nowait = false;
        self.maps
            .push(crate::spread_map::spread_from(partials, |c| c.range()));
        let fold_range = range.clone();
        self.parallel_for(scope, range, kernel)?;
        let value = scope.with_host(partials, |p| {
            fold_range
                .clone()
                .map(|i| p[i])
                .fold(op.identity(), |a, b| op.combine(a, b))
        });
        Ok(value)
    }
}
