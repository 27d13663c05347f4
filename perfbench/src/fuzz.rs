//! The `fuzz-mixed` workload: many tiny seeded programs, each checked
//! once under FIFO against the conformance oracle.

use std::time::Instant;

use spread_check::ast::{Sched, Stmt};
use spread_check::{check_program, gen, oracle, run, CheckConfig, Program, TieBreak};
use spread_core::SpreadSchedule;

use crate::layers::{self, Shape};
use crate::report::{median, peak_rss_bytes, percentile, LayerRow, Outcome};

/// Programs per pool; every pass checks the whole pool.
pub const POOL: usize = 3000;

/// Fewest passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// One check per program: FIFO only.
fn check_cfg() -> CheckConfig {
    CheckConfig {
        interleavings: 1,
        ..CheckConfig::default()
    }
}

/// Program `i` of the pool for `seed`: the default generator (data
/// regions, halos, reductions, `nowait`) without its raw final phase,
/// and the pressure and overlap generators, in turn.
pub fn program(seed: u64, i: usize) -> Program {
    let s = spread_prng::mix(seed, i as u64);
    match i % 3 {
        0 => without_raw_phase(gen::gen_program(s)),
        1 => gen::gen_program_pressure(s),
        _ => gen::gen_program_overlap(s),
    }
}

/// Raw enter/exit/update statements and illegal directives, which the
/// default generator puts only in an optional final phase.
fn is_raw(stmt: &Stmt) -> bool {
    matches!(
        stmt,
        Stmt::RawEnter { .. } | Stmt::RawExit { .. } | Stmt::RawUpdate { .. } | Stmt::Bad { .. }
    )
}

/// `p` without its raw final phase. `check_program` rejects some raw
/// `target update` statements that a sibling device's copy can serve
/// (the executor lowers them with `exchange(auto)`; see "Known defects"
/// in `perfbench/README.md`), and no operation of a workload may fail.
/// The generator leaves the same phase out of its faulted programs.
fn without_raw_phase(mut p: Program) -> Program {
    if p.phases.last().is_some_and(|ph| ph.iter().any(is_raw)) {
        p.phases.pop();
    }
    p
}

/// The pool for `seed`, with the seed each program is checked under.
pub fn pool(seed: u64, len: usize) -> Vec<(u64, Program)> {
    (0..len)
        .map(|i| (spread_prng::mix(seed, i as u64), program(seed, i)))
        .collect()
}

/// Distribution shapes of a program's spread constructs and the kernel
/// launches they plan (dynamic chunks included; `auto` schedules, which
/// resolve only at launch, are skipped).
pub fn shapes(p: &Program) -> (Vec<Shape>, u64) {
    let mut shapes = Vec::new();
    let mut launches = 0u64;
    let mut add = |range: std::ops::Range<usize>, devices: &[u32], schedule, kernel: bool| {
        let chunks = spread_core::distribute(range.clone(), devices, &schedule).len() as u64;
        if kernel {
            launches += chunks;
        }
        shapes.push(Shape {
            range,
            devices: devices.to_vec(),
            schedule,
        });
    };
    let sched = |s: &Sched| (!matches!(s, Sched::Auto { .. })).then(|| s.to_schedule());
    for stmt in p.phases.iter().flatten() {
        match stmt {
            Stmt::Spread {
                devices,
                sched: s,
                op,
                ..
            } => {
                if let Some(s) = sched(s) {
                    add(op.range(p.n), devices, s, true);
                }
            }
            Stmt::Reduce {
                devices, sched: s, ..
            } => {
                if let Some(s) = sched(s) {
                    add(0..p.n, devices, s, true);
                }
            }
            Stmt::DataRegion {
                devices,
                chunk,
                body_add,
                update_from,
                ..
            } => {
                let st = SpreadSchedule::static_chunk(*chunk);
                add(0..p.n, devices, st.clone(), false);
                if body_add.is_some() {
                    add(0..p.n, devices, st.clone(), true);
                }
                if *update_from {
                    add(0..p.n, devices, st.clone(), false);
                }
                add(0..p.n, devices, st, false);
            }
            Stmt::Halo {
                devices,
                chunk,
                bump,
                ..
            } => {
                let st = SpreadSchedule::static_chunk(*chunk);
                add(0..p.n, devices, st.clone(), false);
                if bump.is_some() {
                    add(0..p.n, devices, st.clone(), true);
                }
                add(0..p.n, devices, st.clone(), false);
                add(0..p.n, devices, st.clone(), true);
                add(0..p.n, devices, st, false);
            }
            Stmt::RawEnter {
                device, start, len, ..
            }
            | Stmt::RawExit {
                device, start, len, ..
            }
            | Stmt::RawUpdate {
                device, start, len, ..
            } if *len > 0 => {
                add(
                    *start..start + len,
                    &[*device],
                    SpreadSchedule::static_chunk(*len),
                    false,
                );
            }
            _ => {}
        }
    }
    (shapes, launches)
}

/// Grid-element updates the program's kernels issue.
fn node_updates(p: &Program) -> u64 {
    p.phases
        .iter()
        .flatten()
        .map(|stmt| match stmt {
            Stmt::Spread { op, .. } => op.range(p.n).len() as u64,
            Stmt::Reduce { .. } | Stmt::Halo { .. } => p.n as u64,
            Stmt::DataRegion { body_add, .. } => body_add.map_or(0, |_| p.n as u64),
            _ => 0,
        })
        .sum()
}

/// The untraced run: every end-to-end metric.
pub fn run_e2e(seed: u64, seconds: f64, out: &mut Outcome) {
    let cfg = check_cfg();
    let mut progs = Vec::new();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut samples = 0usize;
    let t_start = Instant::now();
    while passes.len() < MIN_PASSES || t_start.elapsed().as_secs_f64() < seconds {
        // Set up before every pass, so the setup samples spread over the
        // run like the passes do; free the previous pool first.
        drop(std::mem::take(&mut progs));
        let (p, t) = out.tracer.time("setup", None, || pool(seed, POOL));
        progs = p;
        setups.push(t);
        let span = out.tracer.open("pass", None);
        let mut latencies = Vec::with_capacity(progs.len());
        let t_pass = Instant::now();
        for (s, p) in &progs {
            let t0 = Instant::now();
            let verdict = check_program(p, *s, &cfg);
            latencies.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            if let Err(f) = verdict {
                out.failed += 1;
                if out.mismatches.len() < 5 {
                    out.mismatches.push(format!("program seed {s}: {f}"));
                }
            }
        }
        passes.push(t_pass.elapsed().as_secs_f64());
        out.tracer.close(span);
        samples += latencies.len();
        p50s.push(median(&latencies));
        p99s.push(percentile(&latencies, 99.0));
    }
    let rss = peak_rss_bytes();
    let wall = median(&passes);
    let updates: u64 = progs.iter().map(|(_, p)| node_updates(p)).sum();
    out.wall_s = wall;
    out.set("wall_s", wall);
    out.set("node_updates_per_s", updates as f64 / wall);
    out.set("programs_per_s", progs.len() as f64 / wall);
    out.set("program_p50_us", median(&p50s) * 1e6);
    out.set("program_p99_us", median(&p99s) * 1e6);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss as f64 / 1e6);
    out.note("programs", progs.len() as f64, "count");
    out.note("program_samples", samples as f64, "count");
}

/// The traced run: per pass, time the oracle and the executor on their
/// own next to the full check, then replay the construct shapes.
pub fn run_traced(seed: u64, seconds: f64, team_threads: usize, out: &mut Outcome) {
    let progs = pool(seed, POOL);
    let cfg = check_cfg();
    let (mut walls, mut oracle_s, mut execute_s) = (Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    while walls.len() < MIN_PASSES || t_start.elapsed().as_secs_f64() < seconds {
        let span = out.tracer.open("pass.layers", None);
        let (mut wall, mut or, mut ex) = (0.0, 0.0, 0.0);
        for (s, p) in &progs {
            let t0 = Instant::now();
            std::hint::black_box(oracle::predict(p, None));
            let t1 = Instant::now();
            std::hint::black_box(run::execute(p, TieBreak::Fifo, None));
            let t2 = Instant::now();
            let verdict = check_program(p, *s, &cfg);
            let t3 = Instant::now();
            or += (t1 - t0).as_secs_f64();
            ex += (t2 - t1).as_secs_f64();
            wall += (t3 - t2).as_secs_f64();
            out.attempted += 1;
            if let Err(f) = verdict {
                out.failed += 1;
                if out.mismatches.len() < 5 {
                    out.mismatches.push(format!("program seed {s}: {f}"));
                }
            }
        }
        out.tracer.close(span);
        walls.push(wall);
        oracle_s.push(or);
        execute_s.push(ex);
    }
    let mut all_shapes = Vec::new();
    let mut launches = 0u64;
    for (_, p) in &progs {
        let (s, l) = shapes(p);
        all_shapes.extend(s);
        launches += l;
    }
    let statements: usize = progs
        .iter()
        .map(|(_, p)| p.phases.iter().flatten().count())
        .sum();
    let (dispatch_us, _) = out.tracer.time("teams.dispatch", None, || {
        layers::dispatch_us(team_threads, 2000)
    });
    let (distribute_us, _) = out.tracer.time("core.distribute", None, || {
        layers::distribute_us(&all_shapes, 20)
    });

    let wall = median(&walls);
    let oracle = median(&oracle_s);
    let dispatch_s = launches as f64 * dispatch_us / 1e6;
    let residual = wall - (oracle + dispatch_s);
    out.wall_s = wall;
    out.set("teams.launches", launches as f64);
    out.set("teams.dispatch_us", dispatch_us);
    out.set("teams.dispatch_s", dispatch_s);
    out.set("core.constructs", all_shapes.len() as f64);
    out.set("core.distribute_us", distribute_us);
    out.set("check.oracle_s", oracle);
    out.set("check.execute_s", median(&execute_s));
    out.set("check.statements", statements as f64);
    out.set("rt.residual_s", residual);
    out.note("programs", progs.len() as f64, "count");

    out.layers = vec![
        LayerRow {
            layer: "spread-check",
            what: "oracle::predict (semantics machine)",
            host_s: oracle,
        },
        LayerRow {
            layer: "spread-check",
            what: "run::execute (not subtracted: it is the rest)",
            host_s: median(&execute_s),
        },
        LayerRow {
            layer: "spread-teams",
            what: "planned launches x empty parallel_for",
            host_s: dispatch_s,
        },
        LayerRow {
            layer: "spread-core",
            what: "distribute over the construct shapes",
            host_s: distribute_us * all_shapes.len() as f64 / 1e6,
        },
        LayerRow {
            layer: "spread-rt",
            what: "residual: wall - (oracle + teams)",
            host_s: residual,
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_every_program_checks() {
        let a = pool(7, 6);
        let b = pool(7, 6);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same programs"
        );
        assert_ne!(format!("{a:?}"), format!("{:?}", pool(8, 6)));
        for (s, p) in &a {
            check_program(p, *s, &check_cfg()).expect("generated programs conform");
        }
    }

    /// The defect the raw phase is left out for still reproduces. Once
    /// `check_program` accepts this program, put the raw phase back.
    #[test]
    fn raw_phase_is_left_out_for_a_known_defect() {
        let seed = 6417456791859038870;
        let p = gen::gen_program(seed);
        let f = check_program(&p, seed, &check_cfg()).expect_err("known defect");
        assert!(f.detail.contains("peer copies"), "{f}");
        let q = without_raw_phase(p.clone());
        assert_eq!(q.phases.len() + 1, p.phases.len());
        assert!(q.phases.iter().flatten().all(|s| !is_raw(s)));
        check_program(&q, seed, &check_cfg()).expect("the rest conforms");
    }

    #[test]
    fn shapes_cover_the_spread_statements() {
        let progs = pool(3, 12);
        let (mut constructs, mut launches) = (0, 0);
        for (_, p) in &progs {
            let (s, l) = shapes(p);
            constructs += s.len();
            launches += l;
        }
        assert!(constructs > 0 && launches > 0);
    }
}
