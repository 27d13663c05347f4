//! Export the straggler-rescue benchmark as machine-readable JSON.
//!
//! Runs the Somier `spread_straggler(…)` variant on the 4-device
//! CTE-POWER machine with device 1 slowed by a sweep of compute
//! factors, once per policy — `wait` (monitor only), `steal` (cancel
//! the straggler and re-execute on the least-loaded sibling), and
//! `replicate` (race both copies) — then writes `BENCH_straggler.json`
//! in the shared [`spread_bench::report`] schema: end-to-end virtual
//! times, rescue accounting, and the bit-identity witness, one
//! `cells[]` entry per slowdown factor. The interesting shape is the
//! crossover: the rescue path pays its own enter + H2D on the sibling,
//! so `steal` loses slightly at mild slowdowns and wins decisively at
//! heavy ones. Everything is virtual time, so the file is
//! bit-reproducible.
//!
//! Usage: `cargo run --release -p spread-bench --bin export_straggler`

use spread_bench::report::{centers_checksum, Obj, Report};
use spread_core::prelude::*;
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::SimTime;

const N_GPUS: usize = 4;
const N: usize = 40;
const TIMESTEPS: usize = 6;
const SLOW_DEVICE: u32 = 1;
const FACTORS: [f64; 4] = [4.0, 8.0, 16.0, 32.0];

fn main() {
    let cfg = SomierConfig::test_small(N, TIMESTEPS);
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));

    let run = |factor: f64, policy: StragglerPolicy| {
        let plan = FaultPlan::new(7).slow_compute(SLOW_DEVICE, SimTime::ZERO, SimTime::MAX, factor);
        let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
        let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
            // Somier constructs are transfer-heavy, so the first
            // finisher's span (which sets the deadline) is mostly H2D
            // time. The default β=4 would only catch extreme slowdowns;
            // β=2 keeps the deadline sensitive to compute-side lag
            // without tripping on the transfer jitter a static split
            // actually exhibits.
            t.with_straggler(policy).with_straggler_beta(2.0)
        })
        .expect("straggler run");
        assert_eq!(
            report.centers, reference.centers,
            "rescue must not change the physics ({policy:?} @ {factor}x)"
        );
        let rescues = rt.events::<spread_rt::RescueRecord>();
        assert!(
            rescues.iter().all(|r| r.commits == 1),
            "first-commit-wins: exactly one commit per rescued piece"
        );
        (rt.elapsed().as_secs_f64(), rescues.len())
    };

    let mut report = Report::new(
        "somier-straggler-rescue",
        &format!(
            "Somier One Buffer on {N_GPUS}-device CTE-POWER with device \
             {SLOW_DEVICE} compute-slowed by a sweep of factors: spread_straggler(wait) vs \
             steal (cancel + re-execute on a sibling) vs replicate (race both copies), \
             first-commit-wins keeping every cell bit-identical"
        ),
    )
    .topology("machine", "ctepower")
    .topology("n_gpus", N_GPUS)
    .topology("n", N)
    .topology("timesteps", TIMESTEPS)
    .topology("slow_device", SLOW_DEVICE)
    .field("bit_identical_all_cells", true);
    let mut best_speedup = 0.0f64;
    let mut best_factor = FACTORS[0];
    for &factor in FACTORS.iter() {
        let (wait_s, _) = run(factor, StragglerPolicy::Wait);
        let (steal_s, steal_rescues) = run(factor, StragglerPolicy::Steal);
        let (replicate_s, replicate_rescues) = run(factor, StragglerPolicy::Replicate);
        let speedup = wait_s / steal_s;
        if speedup > best_speedup {
            best_speedup = speedup;
            best_factor = factor;
        }
        report = report.cell(
            Obj::new()
                .field("slowdown", factor)
                .field("wait_s", wait_s)
                .field("steal_s", steal_s)
                .field("replicate_s", replicate_s)
                .field("steal_speedup_vs_wait", speedup)
                .field("steal_rescues", steal_rescues)
                .field("replicate_rescues", replicate_rescues),
        );
    }
    assert!(
        best_speedup > 1.0,
        "steal must show an end-to-end improvement over wait somewhere in the sweep \
         (best {best_speedup:.3}x at {best_factor}x)"
    );
    report
        .field("best_steal_speedup_vs_wait", best_speedup)
        .field("best_steal_speedup_at_slowdown", best_factor)
        .checksum(centers_checksum(&reference.centers))
        .write("BENCH_straggler.json");
    println!(
        "BENCH_straggler.json: best steal speedup vs wait {best_speedup:.2}x at {best_factor}x \
         slowdown of device {SLOW_DEVICE} ({} factors swept)",
        FACTORS.len()
    );
}
