//! Export the adaptive-scheduling benchmark as machine-readable JSON.
//!
//! Runs the heterogeneous Somier experiment (one device at reduced
//! compute speed) under the static equal split and under
//! `spread_schedule(auto)`, then writes `BENCH_adaptive.json` in the
//! shared [`spread_bench::report`] schema: the virtual-time comparison
//! plus the full per-construct, per-device profile record the adaptive
//! scheduler learned from (one `cells[]` entry per profile). Everything
//! is virtual time, so the file is bit-reproducible.
//!
//! Usage: `cargo run --release -p spread-bench --bin export`

use spread_bench::report::{centers_checksum, profile_obj, Report};
use spread_core::prelude::*;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::SomierConfig;

const N_GPUS: usize = 2;
const SLOW_DEVICE: usize = 0;
const SLOW_FACTOR: f64 = 3.0;
const TIMESTEPS: usize = 10;

/// The compute-bound heterogeneous calibration from
/// `crates/somier/tests/adaptive.rs`: kernel costs ×150 over the
/// transfer-dominated default, device 0 at 1/3 compute speed.
fn config() -> SomierConfig {
    let mut cfg = SomierConfig::test_small(20, TIMESTEPS);
    cfg.costs.forces *= 150.0;
    cfg.costs.accel *= 150.0;
    cfg.costs.velocity *= 150.0;
    cfg.costs.position *= 150.0;
    cfg.costs.centers *= 150.0;
    cfg.with_slow_device(SLOW_DEVICE, SLOW_FACTOR)
}

/// `spread_schedule(auto)` with one profile key per kernel
/// (`somier-forces`, …).
fn auto_keys(t: TargetSpread, kernel: &'static str) -> TargetSpread {
    t.with_schedule(SpreadSchedule::auto(format!("somier-{kernel}")))
}

fn main() {
    let cfg = config();

    let mut static_rt = cfg.runtime(N_GPUS);
    let static_report =
        run_spread_scoped(&mut static_rt, &cfg, N_GPUS, |t, _| t).expect("static run");

    let mut auto_rt = cfg.runtime(N_GPUS);
    let auto_report = run_spread_scoped(&mut auto_rt, &cfg, N_GPUS, auto_keys).expect("auto run");
    assert_eq!(
        auto_report.centers, static_report.centers,
        "adapted splits must not change the physics"
    );

    let static_s = static_report.elapsed.as_secs_f64();
    let auto_s = auto_report.elapsed.as_secs_f64();
    let profiles = auto_rt.events::<spread_trace::ConstructProfile>();

    let mut report = Report::new(
        "somier-heterogeneous-adaptive",
        &format!(
            "Somier One Buffer on {N_GPUS} GPUs with device {SLOW_DEVICE} at \
             1/{SLOW_FACTOR} compute speed: static equal split vs spread_schedule(auto)"
        ),
    )
    .topology("machine", "ctepower")
    .topology("n_gpus", N_GPUS)
    .topology("n", cfg.n)
    .topology("timesteps", TIMESTEPS)
    .topology("slow_device", SLOW_DEVICE)
    .topology("slow_factor", SLOW_FACTOR)
    .field("static_elapsed_s", static_s)
    .field("auto_elapsed_s", auto_s)
    .field("speedup", static_s / auto_s)
    .field("bit_identical_to_static", true);
    for p in &profiles {
        report = report.cell(profile_obj(p));
    }
    report
        .checksum(centers_checksum(&auto_report.centers))
        .write("BENCH_adaptive.json");
    println!(
        "BENCH_adaptive.json: static {static_s:.4}s, auto {auto_s:.4}s, speedup {:.2}x, \
         {} profiles",
        static_s / auto_s,
        profiles.len()
    );
}
