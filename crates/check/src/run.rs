//! The executor: lowers a [`Program`] onto the real runtime and runs it
//! under a chosen event-queue tie-break policy, collecting everything
//! the oracle predicts — final host arrays, reduction values, the
//! mapping-table snapshot, race reports, the runtime's decision
//! journal, and the first error.

use spread_core::spread_map::SpreadMap;
use spread_core::testing::TargetSpreadTestingExt;
use spread_core::{
    spread_from, spread_to, spread_tofrom, ExchangeMode, IntegrityMode, OverlapPolicy,
    PressurePolicy, ResiliencePolicy, SpreadClausesExt, SpreadSchedule, TargetEnterDataSpread,
    TargetExitDataSpread, TargetSpread, TargetUpdateSpread,
};
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::{Event, HostArray, KernelSpec, MapType, RtError, Runtime, RuntimeConfig, Scope};
use spread_sim::{FaultPlan, SimTime, TieBreak};

use crate::ast::{
    BadKind, FaultSpec, IntegritySpec, KernelOp, PressureSpec, Program, Stmt, StragglerSpec,
};
use crate::{oracle, Fault};
use spread_core::StragglerPolicy;

/// The host staging-buffer bound the executor configures for pressure
/// programs: 8 pool elements, small enough that most spilled pieces
/// stream through in several map→compute→unmap slices.
pub const SPILL_STAGING_BYTES: u64 = 64;

/// Everything observed from one execution.
#[derive(Clone, Debug)]
pub struct Observed {
    /// Final host arrays.
    pub arrays: Vec<Vec<f64>>,
    /// Reduction results in statement order.
    pub reduces: Vec<f64>,
    /// `(array, start, len, refcount)` per device, sorted — from
    /// [`Runtime::mapping_snapshot`].
    pub mappings: Vec<Vec<(u32, usize, usize, u32)>>,
    /// Number of race reports.
    pub races: usize,
    /// Every decision the runtime took, in order — from
    /// [`Runtime::journal`]: degradations (pressure programs), profiles
    /// (`spread_schedule(auto)` programs, which run with tracing on),
    /// peer copies ([`Stmt::Halo`] under `exchange(auto)`), rescues
    /// ([`StragglerSpec`]), integrity events ([`IntegritySpec`], or the
    /// peer canary's flip) and pipelined pieces
    /// ([`crate::ast::OverlapSpec`]).
    pub journal: Vec<Event>,
    /// The first error, if any.
    pub error: Option<RtError>,
}

/// Build the harness's machine: uniform devices with ample memory, two
/// team threads, tracing off unless the program uses
/// `spread_schedule(auto)` (the conformance assertions do not need span
/// records — `tests/determinism.rs` covers the timeline — but the
/// adaptive profile layer learns from spans, so auto programs trace).
/// The program's [`FaultSpec`], if any, is lowered to a [`FaultPlan`]:
/// the loss fires at time zero and transient bursts start failing
/// copies immediately, so the outcome is the same under every
/// tie-break.
#[allow(clippy::too_many_arguments)]
fn runtime(
    n_devices: usize,
    tie: TieBreak,
    fault: Option<&FaultSpec>,
    pressure: Option<&PressureSpec>,
    straggler: Option<&StragglerSpec>,
    integrity: Option<&IntegritySpec>,
    peer_flip: Option<u32>,
    trace: bool,
) -> Runtime {
    // Pressure programs run on their spec's tiny capacity; everything
    // else gets ample memory so admission never interferes.
    let mem_bytes = pressure.map_or(1 << 22, |ps| ps.cap_bytes);
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(mem_bytes),
        1e9,
        1.6e9,
    );
    let mut cfg = RuntimeConfig::new(topo)
        .with_team_threads(2)
        .with_trace(trace)
        .with_tie_break(tie);
    // A fixed plan seed: it only feeds retry-backoff jitter, which
    // shifts virtual timing, never results.
    let mut plan = FaultPlan::new(0xFA17);
    if let Some(f) = fault {
        if let Some(d) = f.lost {
            plan = plan.lose_device(d, SimTime::ZERO);
        }
        for &(d, count) in &f.transients {
            plan = plan.transient_copies(d, SimTime::ZERO, count);
        }
    }
    if let Some(ps) = pressure {
        cfg = cfg.with_spill_staging_bytes(SPILL_STAGING_BYTES);
        for &(d, bytes) in &ps.sustained {
            plan = plan.sustain_pressure(d, SimTime::ZERO, bytes);
        }
    }
    if let Some(ss) = straggler {
        for &(d, factor) in &ss.slow {
            plan = plan.slow_compute(d, SimTime::ZERO, SimTime::MAX, factor as f64);
        }
    }
    if let Some(is) = integrity {
        // Flip bursts arm at time zero — like every other spec fault —
        // so which committing drains rot is a pure function of the
        // program, not of event timing.
        for &(d, count) in &is.flips {
            plan = plan.silent_flips(d, SimTime::ZERO, count);
        }
    }
    if let Some(d) = peer_flip {
        // The `--inject peer` canary: one in-flight flip armed against
        // the destination device of the first predicted peer route.
        plan = plan.silent_flips(d, SimTime::ZERO, 1);
    }
    if !plan.is_empty() {
        cfg = cfg.with_fault_plan(plan);
    }
    Runtime::new(cfg)
}

#[allow(clippy::too_many_arguments)]
fn issue_spread(
    s: &mut Scope<'_>,
    handles: &[HostArray],
    n: usize,
    devices: &[u32],
    sched: SpreadSchedule,
    nowait: bool,
    resilience: ResiliencePolicy,
    pressure: Option<PressurePolicy>,
    straggler: Option<StragglerPolicy>,
    integrity: Option<IntegrityMode>,
    overlap: Option<u32>,
    inject: Option<Fault>,
    op: &KernelOp,
) -> Result<(), RtError> {
    let range = op.range(n);
    let mut b = TargetSpread::devices(devices.iter().copied())
        .with_schedule(sched)
        .with_resilience(resilience);
    if let Some(mode) = integrity {
        b = b.with_integrity(mode);
    }
    if let Some(depth) = overlap {
        b = b.with_overlap(OverlapPolicy::Depth(depth));
    }
    if let Some(policy) = pressure {
        b = b.with_pressure(policy);
    }
    // Straggler programs run serial lanes with a 2000× per-iteration
    // cost, so kernel work dominates the progress window and a slowed
    // piece reliably blows the 4× deadline (launch latency and the
    // enter copies would otherwise hide the slowdown).
    let cost = if straggler.is_some() { 2000.0 } else { 1.0 };
    if let Some(policy) = straggler {
        b = b.with_straggler(policy).num_teams(1).num_threads(1);
    }
    // The runtime-side canaries, each armed on the constructs that
    // carry its clause; the harness must catch the divergence from the
    // (correct) oracle. `--inject spill` silently drops the last slice
    // of every spilled piece. `--inject rescue` lets the losing copy of
    // every rescue commit its staged writes anyway (first element
    // perturbed), breaking first-commit-wins. `--inject overlap`
    // commits one staged sub-slice before the whole-piece commit point,
    // first element perturbed (bit divergence or a `leaked` record).
    b = match inject {
        Some(Fault::SpillDropsSlice) if pressure.is_some() => b.inject_drop_last_spill_slice(),
        Some(Fault::RescueDoubleCommit) if straggler.is_some() => b.inject_rescue_double_commit(),
        Some(Fault::OverlapLeak) if overlap.is_some() => b.inject_overlap_leak(),
        _ => b,
    };
    if nowait {
        b = b.nowait();
    }
    match *op {
        KernelOp::AddConst { a, c } => {
            let h = handles[a];
            b.map(spread_tofrom(h, |c| c.range())).parallel_for(
                s,
                range,
                KernelSpec::new("addc", cost, move |r, v| {
                    for i in r {
                        v.set(0, i, v.get(0, i) + c);
                    }
                })
                .arg(KernelArg::read_write(h, |r| r)),
            )?;
        }
        KernelOp::Scale { a, c } => {
            let h = handles[a];
            b.map(spread_tofrom(h, |c| c.range())).parallel_for(
                s,
                range,
                KernelSpec::new("scale", cost, move |r, v| {
                    for i in r {
                        v.set(0, i, v.get(0, i) * c);
                    }
                })
                .arg(KernelArg::read_write(h, |r| r)),
            )?;
        }
        KernelOp::Saxpy { x, y, alpha } => {
            let hx = handles[x];
            let hy = handles[y];
            b.map(spread_to(hx, |c| c.range()))
                .map(spread_tofrom(hy, |c| c.range()))
                .parallel_for(
                    s,
                    range,
                    KernelSpec::new("saxpy", cost, move |r, v| {
                        for i in r {
                            v.set(1, i, v.get(1, i) + alpha * v.get(0, i));
                        }
                    })
                    .arg(KernelArg::read(hx, |r| r))
                    .arg(KernelArg::read_write(hy, |r| r)),
                )?;
        }
        KernelOp::Stencil3 { src, dst } => {
            let hs = handles[src];
            let hd = handles[dst];
            b.map(spread_to(hs, |c| c.start() - 1..c.end() + 1))
                .map(spread_from(hd, |c| c.range()))
                .parallel_for(
                    s,
                    range,
                    KernelSpec::new("stencil", 2.0 * cost, move |r, v| {
                        for i in r {
                            let sum = v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1);
                            v.set(1, i, sum);
                        }
                    })
                    .arg(KernelArg::read(hs, |r| r.start - 1..r.end + 1))
                    .arg(KernelArg::write(hd, |r| r)),
                )?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn issue(
    s: &mut Scope<'_>,
    p: &Program,
    handles: &[HostArray],
    reduces: &mut Vec<f64>,
    inject: Option<Fault>,
    exchange: ExchangeMode,
    integrity: Option<IntegrityMode>,
    stmt: &Stmt,
) -> Result<(), RtError> {
    let resilience = if p.resilient() {
        ResiliencePolicy::Redistribute
    } else {
        ResiliencePolicy::FailStop
    };
    match stmt {
        Stmt::Spread {
            devices,
            sched,
            nowait,
            op,
        } => issue_spread(
            s,
            handles,
            p.n,
            devices,
            sched.to_schedule(),
            *nowait,
            resilience,
            p.pressure_policy(),
            p.straggler_policy(),
            integrity,
            p.overlap_depth(),
            inject,
            op,
        ),
        Stmt::Reduce {
            devices,
            sched,
            a,
            partials,
            alpha,
            op,
        } => {
            let ha = handles[*a];
            let hp = handles[*partials];
            let alpha = *alpha;
            let value = TargetSpread::devices(devices.iter().copied())
                .with_schedule(sched.to_schedule())
                .with_resilience(resilience)
                .map(spread_to(ha, |c| c.range()))
                .parallel_for_reduce(
                    s,
                    0..p.n,
                    KernelSpec::new("partials", 1.0, move |r, v| {
                        for i in r {
                            v.set(1, i, alpha * v.get(0, i));
                        }
                    })
                    .arg(KernelArg::read(ha, |r| r))
                    .arg(KernelArg::write(hp, |r| r)),
                    hp,
                    *op,
                )?;
            reduces.push(value);
            Ok(())
        }
        Stmt::DataRegion {
            devices,
            chunk,
            a,
            body_add,
            update_from,
            exit_from,
        } => {
            let h = handles[*a];
            TargetEnterDataSpread::devices(devices.iter().copied())
                .range(0, p.n)
                .chunk_size(*chunk)
                .map(spread_to(h, |c| c.range()))
                .launch(s)?;
            if let Some(cv) = *body_add {
                issue_spread(
                    s,
                    handles,
                    p.n,
                    devices,
                    SpreadSchedule::static_chunk(*chunk),
                    false,
                    resilience,
                    None,
                    None,
                    None,
                    None,
                    None,
                    &KernelOp::AddConst { a: *a, c: cv },
                )?;
            }
            if *update_from {
                TargetUpdateSpread::devices(devices.iter().copied())
                    .range(0, p.n)
                    .chunk_size(*chunk)
                    .from(h, |c| c.range())
                    .launch(s)?;
            }
            let exit_map = if *exit_from {
                spread_from(h, |c| c.range())
            } else {
                SpreadMap::new(MapType::Release, h, |c| c.range())
            };
            TargetExitDataSpread::devices(devices.iter().copied())
                .range(0, p.n)
                .chunk_size(*chunk)
                .map(exit_map)
                .launch(s)?;
            Ok(())
        }
        Stmt::Halo {
            devices,
            chunk,
            a,
            dst,
            bump,
        } => {
            let n = p.n;
            let h = handles[*a];
            let hd = handles[*dst];
            let halo =
                move |c: spread_core::ChunkCtx| c.start().saturating_sub(1)..(c.end() + 1).min(n);
            TargetEnterDataSpread::devices(devices.iter().copied())
                .range(0, n)
                .chunk_size(*chunk)
                .map(spread_to(h, halo))
                .launch(s)?;
            if let Some(cv) = *bump {
                // Reuses the persistent mapping (exact-body containment)
                // so the bumped bytes never reach the host: every
                // sibling image goes stale and the exchange planner must
                // route each halo through the host.
                issue_spread(
                    s,
                    handles,
                    n,
                    devices,
                    SpreadSchedule::static_chunk(*chunk),
                    false,
                    resilience,
                    None,
                    None,
                    None,
                    None,
                    None,
                    &KernelOp::AddConst { a: *a, c: cv },
                )?;
            }
            TargetUpdateSpread::devices(devices.iter().copied())
                .range(0, n)
                .chunk_size(*chunk)
                .to(h, |c| c.start().saturating_sub(1)..c.start())
                .to(h, move |c| c.end()..(c.end() + 1).min(n))
                .exchange(exchange)
                .launch(s)?;
            // Clamped 3-point stencil over the refreshed window: the
            // `to` map is the exact halo'd section (pure reuse, no
            // copy), and the `from` map carries the freshly exchanged
            // halo bytes into the final host state of `dst`.
            let n1 = n - 1;
            TargetSpread::devices(devices.iter().copied())
                .with_schedule(SpreadSchedule::static_chunk(*chunk))
                .map(spread_to(h, halo))
                .map(spread_from(hd, |c| c.range()))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("halo-stencil", 2.0, move |r, v| {
                        for i in r {
                            let l = if i == 0 { i } else { i - 1 };
                            let rr = if i == n1 { i } else { i + 1 };
                            v.set(1, i, v.get(0, l) + v.get(0, i) + v.get(0, rr));
                        }
                    })
                    .arg(KernelArg::read(h, move |r| {
                        r.start.saturating_sub(1)..(r.end + 1).min(n)
                    }))
                    .arg(KernelArg::write(hd, |r| r)),
                )?;
            TargetExitDataSpread::devices(devices.iter().copied())
                .range(0, n)
                .chunk_size(*chunk)
                .map(SpreadMap::new(MapType::Release, h, halo))
                .launch(s)?;
            Ok(())
        }
        Stmt::RawEnter {
            device,
            a,
            start,
            len,
        } => {
            TargetEnterDataSpread::devices([*device])
                .range(*start, *len)
                .chunk_size(*len)
                .map(spread_to(handles[*a], |c| c.range()))
                .launch(s)?;
            Ok(())
        }
        Stmt::RawExit {
            device,
            a,
            start,
            len,
            delete,
        } => {
            let mt = if *delete {
                MapType::Delete
            } else {
                MapType::From
            };
            TargetExitDataSpread::devices([*device])
                .range(*start, *len)
                .chunk_size(*len)
                .map(SpreadMap::new(mt, handles[*a], |c| c.range()))
                .launch(s)?;
            Ok(())
        }
        Stmt::RawUpdate {
            device,
            a,
            start,
            len,
            from,
        } => {
            let mut b = TargetUpdateSpread::devices([*device])
                .range(*start, *len)
                .chunk_size(*len);
            if *from {
                b = b.from(handles[*a], |c| c.range());
            } else {
                b = b.to(handles[*a], |c| c.range());
            }
            b.launch(s)?;
            Ok(())
        }
        Stmt::Bad { a, kind } => {
            let h = handles[*a];
            match kind {
                BadKind::DynamicDataSchedule => {
                    TargetEnterDataSpread::devices([0])
                        .with_schedule(SpreadSchedule::dynamic(4))
                        .range(0, p.n)
                        .chunk_size(4)
                        .map(spread_to(h, |c| c.range()))
                        .launch(s)?;
                }
                BadKind::MissingChunkSize => {
                    TargetEnterDataSpread::devices([0])
                        .range(0, p.n)
                        .map(spread_to(h, |c| c.range()))
                        .launch(s)?;
                }
                BadKind::EmptyDevices => {
                    TargetSpread::devices([]).parallel_for(
                        s,
                        0..p.n,
                        KernelSpec::new("noop", 1.0, |_, _| {}),
                    )?;
                }
            }
            Ok(())
        }
    }
}

/// Execute `p` under `tie` and report what the runtime observed.
/// `inject` perturbs the *runtime* when it is a runtime-side canary
/// (spill, peer, rescue, integrity, overlap); the oracle-side faults
/// are ignored here. [`Stmt::Halo`] exchanges run through
/// the host — see [`execute_ex`] for the peer route.
pub fn execute(p: &Program, tie: TieBreak, inject: Option<Fault>) -> Observed {
    execute_ex(p, tie, inject, ExchangeMode::Host)
}

/// [`execute`] with an explicit `exchange(…)` route for every
/// [`Stmt::Halo`] refresh in the program (other statements never
/// exchange). Under [`Fault::PeerCorrupt`] the fault plan arms one
/// in-flight [`spread_sim::PlannedFault::SilentFlip`] against the
/// destination device of the first predicted peer route — and only
/// when `exchange` takes the peer path, so the host-forced legs stay
/// bit-clean. That asymmetry is exactly what makes the canary a proof
/// that the differential harness watches the peer route. Under
/// [`Fault::IntegrityCorrupt`] the program's flip bursts stay armed but
/// every construct's `spread_integrity(…)` clause is downgraded to
/// `off`, so the rot reaches the host silently and the flip-blind
/// oracle comparison must catch it.
pub fn execute_ex(
    p: &Program,
    tie: TieBreak,
    inject: Option<Fault>,
    exchange: ExchangeMode,
) -> Observed {
    let peer_flip = (inject == Some(Fault::PeerCorrupt) && exchange != ExchangeMode::Host)
        .then(|| oracle::predict_peer_copies(p).first().map(|r| r.1))
        .flatten();
    let blind = inject == Some(Fault::IntegrityCorrupt) && p.integrity.is_some();
    let integrity = if blind { None } else { p.integrity_mode() };
    let mut rt = runtime(
        p.n_devices,
        tie,
        p.fault.as_ref(),
        p.pressure.as_ref(),
        p.straggler.as_ref(),
        p.integrity.as_ref(),
        peer_flip,
        p.uses_auto(),
    );
    let handles: Vec<HostArray> = (0..p.n_arrays)
        .map(|k| rt.host_array(format!("A{k}"), p.n))
        .collect();
    for (k, &h) in handles.iter().enumerate() {
        rt.fill_host(h, move |i| Program::initial(k, i));
    }
    let mut reduces = Vec::new();
    let result = rt.run(|s| {
        for phase in &p.phases {
            for stmt in phase {
                issue(
                    s,
                    p,
                    &handles,
                    &mut reduces,
                    inject,
                    exchange,
                    integrity,
                    stmt,
                )?;
            }
            // Phase barrier: everything `nowait` drains here.
            s.drain_all()?;
        }
        Ok(())
    });
    let mappings = rt
        .mapping_snapshot()
        .into_iter()
        .map(|per_dev| {
            per_dev
                .into_iter()
                .map(|(sec, rc)| (sec.array.0, sec.start, sec.len, rc))
                .collect()
        })
        .collect();
    Observed {
        arrays: handles.iter().map(|&h| rt.snapshot_host(h)).collect(),
        reduces,
        mappings,
        races: rt.races().len(),
        journal: rt.journal(),
        error: result.err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Sched;
    use spread_rt::JournalRecord;
    use spread_trace::ConstructProfile;

    #[test]
    fn executor_matches_a_hand_prediction() {
        let p = Program {
            n_devices: 2,
            n: 12,
            n_arrays: 1,
            phases: vec![vec![Stmt::Spread {
                devices: vec![1, 0],
                sched: Sched::Static { chunk: 3 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            fault: None,
            pressure: None,
            straggler: None,
            integrity: None,
            overlap: None,
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
        assert!(o.mappings.iter().all(|d| d.is_empty()));
        assert!(o.journal.is_empty());
    }

    #[test]
    fn auto_program_records_one_profile_per_launch() {
        let stmt = |c: f64| Stmt::Spread {
            devices: vec![0, 1],
            sched: Sched::Auto { key: 3 },
            nowait: false,
            op: KernelOp::AddConst { a: 0, c },
        };
        let p = Program {
            n_devices: 2,
            n: 24,
            n_arrays: 1,
            phases: vec![vec![stmt(1.0)], vec![stmt(0.5)]],
            fault: None,
            pressure: None,
            straggler: None,
            integrity: None,
            overlap: None,
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        let profiles: Vec<&ConstructProfile> =
            o.journal.iter().filter_map(JournalRecord::of).collect();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].key, "auto-3");
        assert_eq!(profiles[0].launch, 0);
        assert_eq!(profiles[1].launch, 1);
        assert_eq!(profiles[0].weights.len(), 2);
        for i in 0..24 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
    }

    #[test]
    fn raw_leak_shows_in_snapshot() {
        let p = Program {
            n_devices: 1,
            n: 12,
            n_arrays: 1,
            phases: vec![vec![Stmt::RawEnter {
                device: 0,
                a: 0,
                start: 2,
                len: 5,
            }]],
            fault: None,
            pressure: None,
            straggler: None,
            integrity: None,
            overlap: None,
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.mappings[0], vec![(0, 2, 5, 1)]);
    }

    #[test]
    fn lowered_fault_plan_kills_and_recovers() {
        use crate::ast::{FaultMode, FaultSpec};
        let mut p = Program {
            n_devices: 2,
            n: 12,
            n_arrays: 1,
            phases: vec![vec![Stmt::Spread {
                devices: vec![0, 1],
                sched: Sched::Static { chunk: 3 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            fault: Some(FaultSpec {
                lost: Some(1),
                mode: FaultMode::FailStop,
                transients: vec![],
            }),
            pressure: None,
            straggler: None,
            integrity: None,
            overlap: None,
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(
            matches!(o.error, Some(RtError::DeviceLost { device: 1, .. })),
            "{:?}",
            o.error
        );
        // The same loss under redistribute completes with the right values.
        p.fault.as_mut().unwrap().mode = FaultMode::Resilient;
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
    }

    #[test]
    fn lowered_pressure_spec_degrades_and_the_canary_truncates() {
        // One device whose 64 bytes are fully held by a sustained
        // window: the single 12-iteration chunk (96 B) is hopeless on
        // every device and spills through the host staging buffer in
        // two 64-byte slices.
        let p = Program {
            n_devices: 1,
            n: 12,
            n_arrays: 1,
            phases: vec![vec![Stmt::Spread {
                devices: vec![0],
                sched: Sched::Static { chunk: 12 },
                nowait: false,
                op: KernelOp::AddConst { a: 0, c: 1.5 },
            }]],
            fault: None,
            pressure: Some(PressureSpec {
                policy: PressurePolicy::Spill,
                cap_bytes: 64,
                sustained: vec![(0, 64)],
            }),
            straggler: None,
            integrity: None,
            overlap: None,
        };
        let o = execute(&p, TieBreak::Fifo, None);
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.races, 0);
        assert_eq!(o.journal.len(), 1, "{:?}", o.journal);
        assert!(
            matches!(&o.journal[0], Event::Degraded(e) if e.device.is_none()),
            "spilled to the host"
        );
        for i in 0..12 {
            assert_eq!(o.arrays[0][i], Program::initial(0, i) + 1.5);
        }
        // The spill canary silently drops the last slice's writes.
        let o = execute(&p, TieBreak::Fifo, Some(Fault::SpillDropsSlice));
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_ne!(
            o.arrays[0][11],
            Program::initial(0, 11) + 1.5,
            "the dropped slice must be observable"
        );
    }
}
