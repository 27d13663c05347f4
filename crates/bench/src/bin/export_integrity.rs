//! Export the end-to-end integrity benchmark as machine-readable JSON.
//!
//! Runs the Somier `spread_integrity(…)` variant on the 4-device
//! CTE-POWER machine across a sweep of problem sizes, three ways per
//! cell: `off` (the unchecked baseline), `verify` on a clean machine
//! (pure digest overhead — source CRC32C per staged D2H payload plus
//! the boundary re-digest), and `heal` with three silent bit-flip
//! tokens armed (detection plus construct re-execution from the host
//! image), then writes `BENCH_integrity.json` in the shared
//! [`spread_bench::report`] schema: end-to-end virtual times, the
//! verify tax relative to `off`, heal accounting, and the bit-identity
//! witness, one `cells[]` entry per problem size. The headline number
//! is the verify overhead — the price of trusting every byte a device
//! commits — which must stay under 10% across the sweep. Everything is
//! virtual time, so the file is bit-reproducible.
//!
//! Usage: `cargo run --release -p spread-bench --bin export_integrity`

use spread_bench::report::{centers_checksum, Obj, Report};
use spread_core::{IntegrityMode, SpreadClausesExt};
use spread_rt::IntegrityAction;
use spread_sim::FaultPlan;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::SimTime;

const N_GPUS: usize = 4;
const TIMESTEPS: usize = 6;
const SIZES: [usize; 4] = [20, 32, 40, 56];

/// One single-token burst on each of three devices, armed from t=0.
fn flip_plan() -> FaultPlan {
    FaultPlan::new(11)
        .silent_flips(0, SimTime::ZERO, 1)
        .silent_flips(1, SimTime::ZERO, 1)
        .silent_flips(3, SimTime::ZERO, 1)
}

fn main() {
    let mut report = Report::new(
        "somier-integrity",
        &format!(
            "Somier One Buffer on {N_GPUS}-device CTE-POWER across problem \
             sizes: spread_integrity(off) vs verify (CRC32C source digest + commit-boundary \
             re-digest, clean machine; digests are computed inline at DMA line rate, so the \
             tax is commit-path serialization only) vs heal (3 silent bit-flips injected, \
             detect + re-execute from the host image), healing keeping every cell \
             bit-identical"
        ),
    )
    .topology("machine", "ctepower")
    .topology("n_gpus", N_GPUS)
    .topology("timesteps", TIMESTEPS)
    .field("flips_injected_under_heal", 3usize)
    .field("bit_identical_all_cells", true);
    let mut worst_verify_overhead = 0.0f64;
    let mut worst_n = SIZES[0];
    let mut witness = [0.0f64; 3];
    for &n in SIZES.iter() {
        let cfg = SomierConfig::test_small(n, TIMESTEPS);
        let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
        witness = reference.centers;
        let run = |mode: IntegrityMode, plan: Option<FaultPlan>| {
            let mut rt = match plan {
                Some(p) => cfg.runtime_with_faults(N_GPUS, p),
                None => cfg.runtime(N_GPUS),
            };
            let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| t.with_integrity(mode))
                .expect("integrity run");
            assert_eq!(
                report.centers, reference.centers,
                "integrity must not change the physics ({mode:?} @ n={n})"
            );
            let healed = rt
                .events::<spread_rt::IntegrityEvent>()
                .iter()
                .filter(|e| e.action == IntegrityAction::Healed)
                .count();
            (rt.elapsed().as_secs_f64(), healed)
        };
        let (off_s, _) = run(IntegrityMode::Off, None);
        let (verify_s, _) = run(IntegrityMode::Verify, None);
        let (heal_s, heals) = run(IntegrityMode::Heal, Some(flip_plan()));
        assert_eq!(heals, 3, "one healed commit per armed token (n={n})");
        let verify_overhead = verify_s / off_s - 1.0;
        let heal_overhead = heal_s / off_s - 1.0;
        if verify_overhead > worst_verify_overhead {
            worst_verify_overhead = verify_overhead;
            worst_n = n;
        }
        report = report.cell(
            Obj::new()
                .field("n", n)
                .field("grid_bytes", cfg.total_bytes())
                .field("off_s", off_s)
                .field("verify_s", verify_s)
                .field("heal_s", heal_s)
                .field("verify_overhead", verify_overhead)
                .field("heal_overhead", heal_overhead)
                .field("heals", heals),
        );
    }
    assert!(
        worst_verify_overhead <= 0.10,
        "verify must cost at most 10% end-to-end everywhere in the sweep \
         (worst {:.1}% at n={worst_n})",
        worst_verify_overhead * 100.0
    );
    report
        .field("worst_verify_overhead", worst_verify_overhead)
        .field("worst_verify_overhead_at_n", worst_n)
        .checksum(centers_checksum(&witness))
        .write("BENCH_integrity.json");
    println!(
        "BENCH_integrity.json: worst verify overhead {:.2}% at n={worst_n} \
         ({} sizes swept, 3 flips healed per heal cell)",
        worst_verify_overhead * 100.0,
        SIZES.len()
    );
}
