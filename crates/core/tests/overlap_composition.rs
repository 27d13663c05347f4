//! The `spread_overlap(…)` row/column of the clause-composition matrix
//! (DESIGN.md §14), cell by cell: every reject fires `InvalidDirective`
//! at issue time, and every compose keeps whole-piece semantics —
//! straggler rescues re-execute whole pieces, integrity digests verify
//! whole pieces, resilience replays whole pieces — all bit-identical to
//! the un-pipelined runs.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;
use spread_rt::IntegrityAction;
use spread_sim::FaultPlan;
use spread_trace::SimTime;

fn runtime(n_devices: usize, plan: Option<FaultPlan>) -> Runtime {
    let topo = Topology::uniform(
        n_devices,
        DeviceSpec::v100().with_mem_bytes(1 << 22),
        1e9,
        1.5e9,
    );
    let mut cfg = RuntimeConfig::new(topo).with_team_threads(2);
    if let Some(p) = plan {
        cfg = cfg.with_fault_plan(p);
    }
    Runtime::new(cfg)
}

/// `B[i] = 3*A[i] + 1` spread over the devices; `build` customizes the
/// clause set on top of a static 64-chunk schedule.
fn run_scale(
    rt: &mut Runtime,
    devices: Vec<u32>,
    n: usize,
    work_ns: f64,
    build: impl FnOnce(TargetSpread) -> TargetSpread,
) -> Result<Vec<f64>, RtError> {
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        let t = build(
            TargetSpread::devices(devices.clone()).with_schedule(SpreadSchedule::static_chunk(64)),
        );
        t.map(spread_to(a, |c| c.range()))
            .map(spread_from(b, |c| c.range()))
            .parallel_for(
                s,
                0..n,
                KernelSpec::new("scale", work_ns, |chunk, v| {
                    for i in chunk {
                        v.set(1, i, 3.0 * v.get(0, i) + 1.0);
                    }
                })
                .arg(KernelArg::read(a, |r| r))
                .arg(KernelArg::write(b, |r| r)),
            )?;
        Ok(())
    })?;
    Ok(rt.snapshot_host(b))
}

fn expect_invalid(res: Result<Vec<f64>, RtError>, needle: &str) {
    match res {
        Err(RtError::InvalidDirective(msg)) => {
            assert!(msg.contains(needle), "wrong message: {msg}");
        }
        other => panic!("expected InvalidDirective({needle}), got {other:?}"),
    }
}

// ---- Reject cells -------------------------------------------------------
//
// The composition-matrix test (`clause_matrix.rs`) sweeps every clause
// pair; these cells pin the overlap rejects by name.

#[test]
fn overlap_rejects_dynamic_schedule() {
    let mut rt = runtime(2, None);
    let res = run_scale(&mut rt, vec![0, 1], 256, 2.0, |t| {
        t.with_schedule(SpreadSchedule::dynamic(64))
            .with_overlap(OverlapPolicy::Depth(2))
    });
    expect_invalid(res, "requires a static schedule");
}

#[test]
fn overlap_rejects_nowait() {
    let mut rt = runtime(2, None);
    let res = run_scale(&mut rt, vec![0, 1], 256, 2.0, |t| {
        t.nowait().with_overlap(OverlapPolicy::Depth(2))
    });
    expect_invalid(res, "requires a blocking construct");
}

#[test]
fn overlap_depth_zero_rejects() {
    let mut rt = runtime(2, None);
    let res = run_scale(&mut rt, vec![0, 1], 256, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Depth(0))
    });
    expect_invalid(res, "spread_overlap(0) is invalid");
}

#[test]
fn overlap_auto_requires_schedule_auto() {
    let mut rt = runtime(2, None);
    let res = run_scale(&mut rt, vec![0, 1], 256, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Auto)
    });
    expect_invalid(res, "requires spread_schedule(auto)");
}

#[test]
fn overlap_rejects_pressure_degradation() {
    for policy in [PressurePolicy::Split, PressurePolicy::Spill] {
        let mut rt = runtime(2, None);
        let res = run_scale(&mut rt, vec![0, 1], 256, 2.0, |t| {
            t.with_pressure(policy)
                .with_overlap(OverlapPolicy::Depth(2))
        });
        expect_invalid(res, "incompatible with");
    }
}

#[test]
fn data_directives_reject_overlap() {
    // `spread_overlap` pipelines an executable construct's kernel; the
    // four data-management directives have no kernel to overlap with.
    let mut rt = runtime(2, None);
    let n = 128;
    let a = rt.host_array("A", n);
    let err = rt
        .run(|s| {
            TargetEnterDataSpread::devices([0, 1])
                .range(0, n)
                .chunk_size(64)
                .with_overlap(OverlapPolicy::Depth(2))
                .map(spread_to(a, |c| c.range()))
                .launch(s)?;
            Ok(())
        })
        .unwrap_err();
    match err {
        RtError::InvalidDirective(msg) => {
            assert!(msg.contains("spread_overlap"), "wrong message: {msg}")
        }
        other => panic!("expected InvalidDirective, got {other:?}"),
    }
}

// ---- Compose cells ------------------------------------------------------

/// overlap × static schedule (the monitored case): bit-identical across
/// depths and devices.
#[test]
fn overlap_static_multi_device_bit_identical() {
    let n = 1024;
    let mut clean = runtime(4, None);
    let expect = run_scale(&mut clean, vec![0, 1, 2, 3], n, 2.0, |t| t).unwrap();
    for depth in [2, 4] {
        let mut rt = runtime(4, None);
        let out = run_scale(&mut rt, vec![0, 1, 2, 3], n, 2.0, |t| {
            t.with_overlap(OverlapPolicy::Depth(depth))
        })
        .unwrap();
        assert_eq!(out, expect, "depth {depth}");
        let recs = rt.overlap_records();
        assert_eq!(recs.len(), n / 64, "one record per pipelined piece");
        assert!(recs.iter().all(|r| r.staged == r.committed && !r.leaked));
        assert!(rt.races().is_empty());
        for d in 0..4 {
            assert_eq!(rt.device_mem_used(d), 0);
        }
    }
}

/// overlap × spread_schedule(auto): `OverlapPolicy::Auto` resolves a
/// depth per launch from the profile store (explore {1, 2, 4}, then the
/// EWMA argmin), bit-identical throughout.
#[test]
fn overlap_auto_explores_depths_and_stays_bit_identical() {
    let n = 1024;
    let mut clean = runtime(2, None);
    let expect = run_scale(&mut clean, vec![0, 1], n, 2.0, |t| t).unwrap();

    let mut rt = runtime(2, None);
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        for _ in 0..6 {
            TargetSpread::devices([0, 1])
                .with_schedule(SpreadSchedule::auto("auto-overlap"))
                .with_overlap(OverlapPolicy::Auto)
                .map(spread_to(a, |c| c.range()))
                .map(spread_from(b, |c| c.range()))
                .parallel_for(
                    s,
                    0..n,
                    KernelSpec::new("scale", 2.0, |chunk, v| {
                        for i in chunk {
                            v.set(1, i, 3.0 * v.get(0, i) + 1.0);
                        }
                    })
                    .arg(KernelArg::read(a, |r| r))
                    .arg(KernelArg::write(b, |r| r)),
                )?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.snapshot_host(b), expect);
    // The exploration phase must have tried the pipelined candidates
    // (depths 2 and 4) at least once each: those launches leave overlap
    // records; depth-1 launches do not.
    let recs = rt.overlap_records();
    let depths: std::collections::BTreeSet<u32> = recs.iter().map(|r| r.depth).collect();
    assert!(
        depths.contains(&2) && depths.contains(&4),
        "auto must explore depths 2 and 4, saw {depths:?}"
    );
    assert!(rt.races().is_empty());
}

/// overlap × resilience(redistribute): a device lost mid-run is
/// rebuilt on the survivors from the host image — whole pieces,
/// bit-identical.
#[test]
fn overlap_composes_with_redistribute() {
    let n = 1024;
    let mut clean = runtime(4, None);
    let expect = run_scale(&mut clean, vec![0, 1, 2, 3], n, 2.0, |t| t).unwrap();
    let mid = {
        let mut rt = runtime(4, None);
        run_scale(&mut rt, vec![0, 1, 2, 3], n, 2.0, |t| {
            t.with_overlap(OverlapPolicy::Depth(4))
        })
        .unwrap();
        SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
    };
    let plan = FaultPlan::new(7).lose_device(2, mid);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], n, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Depth(4))
            .with_resilience(ResiliencePolicy::Redistribute)
    })
    .unwrap();
    assert_eq!(out, expect, "redistributed results must be bit-identical");
    assert!(rt.races().is_empty());
}

/// overlap × straggler(steal): the slow pipelined piece is rescued by a
/// whole-piece re-execution on a sibling; first-commit-wins sees exactly
/// one commit per rescue and the result is bit-identical.
#[test]
fn overlap_composes_with_straggler_steal() {
    let n = 512;
    // Serial lanes + 2 µs/iter so the kernel dominates; device 1 slowed
    // 8× for the whole run.
    let mut clean = runtime(4, None);
    let expect = run_scale(&mut clean, vec![0, 1, 2, 3], n, 2000.0, |t| {
        t.num_teams(1).num_threads(1)
    })
    .unwrap();
    let plan = FaultPlan::new(5).slow_compute(1, SimTime::ZERO, SimTime::MAX, 8.0);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], n, 2000.0, |t| {
        t.num_teams(1)
            .num_threads(1)
            .with_overlap(OverlapPolicy::Depth(2))
            .with_straggler(StragglerPolicy::Steal)
    })
    .unwrap();
    assert_eq!(out, expect, "rescued results must be bit-identical");
    let rescues = rt.rescues();
    assert!(!rescues.is_empty(), "the slow piece must be rescued");
    for r in &rescues {
        assert_eq!(r.from, 1);
        assert_ne!(r.to, 1);
        assert_eq!(r.commits, 1, "exactly one whole-piece commit per rescue");
    }
    // The rescue re-executes the piece *un-pipelined*: the overlap log
    // holds one record per original piece and nothing for rescues.
    assert_eq!(rt.overlap_records().len(), n / 64);
    assert!(rt.races().is_empty());
}

/// overlap × integrity(verify): a silent flip on a sub-slice drain is
/// caught at the whole-piece commit digest and fails the construct.
#[test]
fn overlap_composes_with_integrity_verify() {
    let n = 512;
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan));
    let err = run_scale(&mut rt, vec![0, 1, 2, 3], n, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Depth(4))
            .with_integrity(IntegrityMode::Verify)
    })
    .unwrap_err();
    match err {
        RtError::IntegrityViolation { device, .. } => assert_eq!(device, 1),
        other => panic!("expected IntegrityViolation on device 1, got {other:?}"),
    }
    let events = rt.integrity_events();
    assert!(events.iter().any(|e| e.action == IntegrityAction::Failed));
}

/// overlap × integrity(heal): the tainted pipelined piece re-executes
/// from the host image and the final state is bit-identical.
#[test]
fn overlap_composes_with_integrity_heal() {
    let n = 512;
    let mut clean = runtime(4, None);
    let expect = run_scale(&mut clean, vec![0, 1, 2, 3], n, 2.0, |t| t).unwrap();
    let plan = FaultPlan::new(11).silent_flips(1, SimTime::ZERO, 1);
    let mut rt = runtime(4, Some(plan));
    let out = run_scale(&mut rt, vec![0, 1, 2, 3], n, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Depth(4))
            .with_integrity(IntegrityMode::Heal)
    })
    .unwrap();
    assert_eq!(out, expect, "healed results must be bit-identical");
    assert!(rt
        .integrity_events()
        .iter()
        .any(|e| e.action == IntegrityAction::Healed && e.device == 1));
    assert!(rt.races().is_empty());
}

/// Depth(1) is exactly Off: no pipeline engages, no records are kept.
#[test]
fn depth_one_is_off() {
    let n = 512;
    let mut rt = runtime(2, None);
    let out = run_scale(&mut rt, vec![0, 1], n, 2.0, |t| {
        t.with_overlap(OverlapPolicy::Depth(1))
    })
    .unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 3.0 * i as f64 + 1.0);
    }
    assert!(rt.overlap_records().is_empty());
}
