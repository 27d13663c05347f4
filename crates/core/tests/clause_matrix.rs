//! The clause-composition matrix of DESIGN.md §14, enumerated: every
//! pair of executable-construct clauses from the set below is launched
//! on a 2-device `target spread`, and the outcome must be exactly the
//! matrix cell — the construct runs to a correct result, or it rejects
//! with `InvalidDirective` carrying the expected reason.
//!
//! The expected verdicts are written out here, from the matrix, on
//! purpose: they are not read from `spread-core`'s validation table, so
//! a wrong table row fails this test instead of redefining it.

use spread_core::prelude::*;
use spread_devices::{DeviceSpec, Topology};
use spread_rt::kernel::KernelArg;
use spread_rt::prelude::*;

/// One clause as a user writes it on the construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Clause {
    Redistribute,
    Split,
    Spill,
    Steal,
    Verify,
    Heal,
    Overlap0,
    Overlap2,
    OverlapAuto,
    SchedAuto,
    Dynamic,
    Nowait,
}

use Clause::*;

/// The pairwise-enumerated clause set.
const PAIRED: [Clause; 10] = [
    Redistribute,
    Split,
    Steal,
    Verify,
    Heal,
    Overlap2,
    OverlapAuto,
    SchedAuto,
    Dynamic,
    Nowait,
];

/// Extra rows outside the pairwise set, with their expected reason.
const EXTRA_ROWS: &[(&[Clause], Option<&str>)] = &[
    (&[Overlap0], Some("spread_overlap(0) is invalid")),
    (&[OverlapAuto], Some("requires spread_schedule(auto)")),
    (&[Spill, Overlap2], Some("incompatible with")),
    (&[Overlap2, Spill], Some("incompatible with")),
    (&[Spill, Redistribute], Some("incompatible with")),
    (&[Spill, Heal], Some("incompatible with")),
    (&[Spill, Steal], None),
];

fn apply(t: TargetSpread, c: Clause) -> TargetSpread {
    match c {
        Redistribute => t.with_resilience(ResiliencePolicy::Redistribute),
        Split => t.with_pressure(PressurePolicy::Split),
        Spill => t.with_pressure(PressurePolicy::Spill),
        Steal => t.with_straggler(StragglerPolicy::Steal),
        Verify => t.with_integrity(IntegrityMode::Verify),
        Heal => t.with_integrity(IntegrityMode::Heal),
        Overlap0 => t.with_overlap(OverlapPolicy::Depth(0)),
        Overlap2 => t.with_overlap(OverlapPolicy::Depth(2)),
        OverlapAuto => t.with_overlap(OverlapPolicy::Auto),
        SchedAuto => t.with_schedule(SpreadSchedule::auto("matrix")),
        Dynamic => t.with_schedule(SpreadSchedule::dynamic(64)),
        Nowait => t.nowait(),
    }
}

/// The matrix cell for a clause list (later clauses of one family
/// override earlier ones, as the builder does): `None` composes,
/// `Some(reason)` rejects with a message containing `reason`.
fn verdict(clauses: &[Clause]) -> Option<&'static str> {
    #[derive(PartialEq)]
    enum Sched {
        Static,
        Auto,
        Dynamic,
    }
    let (mut redistribute, mut pressure, mut steal, mut heal, mut nowait) =
        (false, false, false, false, false);
    let mut overlap: Option<Clause> = None;
    let mut sched = Sched::Static;
    for &c in clauses {
        match c {
            Redistribute => redistribute = true,
            Split | Spill => pressure = true,
            Steal => steal = true,
            Verify => heal = false,
            Heal => heal = true,
            Overlap0 | Overlap2 | OverlapAuto => overlap = Some(c),
            SchedAuto => sched = Sched::Auto,
            Dynamic => sched = Sched::Dynamic,
            Nowait => nowait = true,
        }
    }
    // The two special rows come first: overlap(auto) needs a keyed
    // construct to learn from, and overlap(0) is never a depth.
    if overlap == Some(OverlapAuto) && sched != Sched::Auto {
        return Some("requires spread_schedule(auto)");
    }
    if sched == Sched::Auto && nowait {
        return Some("requires a blocking construct");
    }
    if overlap == Some(Overlap0) {
        return Some("spread_overlap(0) is invalid");
    }
    let overlap = overlap.is_some();
    if (redistribute || pressure || steal || heal || overlap) && sched == Sched::Dynamic {
        return Some("requires a static schedule");
    }
    if (pressure || steal || heal || overlap) && nowait {
        return Some("requires a blocking construct");
    }
    if (redistribute && pressure) || (heal && (steal || pressure)) || (overlap && pressure) {
        return Some("incompatible with");
    }
    None
}

/// `B[i] = 3*A[i] + 1` over 256 elements in static 64-chunks on two
/// devices, with `clauses` applied on top.
fn run(clauses: &[Clause]) -> Result<Vec<f64>, RtError> {
    let topo = Topology::uniform(2, DeviceSpec::v100().with_mem_bytes(1 << 22), 1e9, 1.5e9);
    let mut rt = Runtime::new(RuntimeConfig::new(topo).with_team_threads(2));
    let n = 256;
    let a = rt.host_array("A", n);
    let b = rt.host_array("B", n);
    rt.fill_host(a, |i| i as f64);
    rt.run(|s| {
        let t = clauses.iter().fold(
            TargetSpread::devices([0, 1]).with_schedule(SpreadSchedule::static_chunk(64)),
            |t, &c| apply(t, c),
        );
        t.map(spread_to(a, |c| c.range()))
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
        s.taskwait()?;
        Ok(())
    })?;
    Ok(rt.snapshot_host(b))
}

/// Launch one row and compare it with its expected cell; returns a
/// mismatch description.
fn check(clauses: &[Clause], expect: Option<&str>) -> Option<String> {
    match (run(clauses), expect) {
        (Ok(out), None) => {
            let wrong = out
                .iter()
                .enumerate()
                .any(|(i, &v)| v != 3.0 * i as f64 + 1.0);
            wrong.then(|| format!("{clauses:?}: composed but computed wrong values"))
        }
        (Err(RtError::InvalidDirective(msg)), Some(needle)) => (!msg.contains(needle))
            .then(|| format!("{clauses:?}: rejected with {msg:?}, expected {needle:?}")),
        (got, expect) => Some(format!(
            "{clauses:?}: expected {}, got {:?}",
            expect.map_or("acceptance".to_string(), |n| format!("rejection ({n})")),
            got.map(|_| "acceptance")
        )),
    }
}

#[test]
fn every_clause_pair_matches_the_composition_matrix() {
    let mut rows: Vec<(Vec<Clause>, Option<&str>)> = Vec::new();
    for (i, &a) in PAIRED.iter().enumerate() {
        rows.push((vec![a], verdict(&[a])));
        for &b in &PAIRED[i + 1..] {
            rows.push((vec![a, b], verdict(&[a, b])));
        }
    }
    for &(clauses, expect) in EXTRA_ROWS {
        assert_eq!(
            verdict(clauses),
            expect,
            "{clauses:?}: row disagrees with the matrix"
        );
        rows.push((clauses.to_vec(), expect));
    }
    // The rejects the matrix is built around, by reason.
    for (clauses, reason) in [
        (&[Overlap2, Dynamic][..], "requires a static schedule"),
        (&[Nowait, Overlap2][..], "requires a blocking construct"),
        (&[Split, Overlap2][..], "incompatible with"),
        (&[Redistribute, Split][..], "incompatible with"),
        (&[Steal, Heal][..], "incompatible with"),
        (&[Redistribute, Dynamic][..], "requires a static schedule"),
        (&[SchedAuto, Nowait][..], "requires a blocking construct"),
    ] {
        assert_eq!(verdict(clauses), Some(reason), "{clauses:?}");
    }
    assert_eq!(rows.len(), 10 + 45 + EXTRA_ROWS.len());
    let mismatches: Vec<String> = rows
        .iter()
        .filter_map(|(clauses, expect)| check(clauses, *expect))
        .collect();
    assert!(
        mismatches.is_empty(),
        "composition matrix violated:\n{}",
        mismatches.join("\n")
    );
}
