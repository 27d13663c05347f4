//! `spread_schedule(auto)` on a heterogeneous machine.
//!
//! One device's compute runs 3× slower
//! ([`SomierConfig::with_slow_device`]). A static equal split waits on
//! it at every buffer; the profile-guided schedule starts from the same
//! equal split, then converges toward equal per-device finish times
//! within the first few launches — and, because adapted splits only
//! move planes between devices, the centers stay bit-exact against the
//! CPU reference throughout.

use spread_core::prelude::*;
use spread_somier::one_buffer::run_spread_scoped;
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::ConstructProfile;

const N_GPUS: usize = 2;
const SLOW_FACTOR: f64 = 3.0;

/// The heterogeneous experiment: a compute-bound calibration (the
/// default one is ~72% transfer-dominated, where no schedule can win
/// much) with device 0 at 1/3 compute speed.
fn config(timesteps: usize, slow: bool) -> SomierConfig {
    let mut cfg = SomierConfig::test_small(20, timesteps);
    cfg.costs.forces *= 150.0;
    cfg.costs.accel *= 150.0;
    cfg.costs.velocity *= 150.0;
    cfg.costs.position *= 150.0;
    cfg.costs.centers *= 150.0;
    if slow {
        cfg = cfg.with_slow_device(0, SLOW_FACTOR);
    }
    cfg
}

/// `spread_schedule(auto)` with one profile key per kernel
/// (`somier-forces`, …).
fn auto_keys(t: TargetSpread, kernel: &'static str) -> TargetSpread {
    t.with_schedule(SpreadSchedule::auto(format!("somier-{kernel}")))
}

#[test]
fn auto_stays_bit_exact_on_the_heterogeneous_machine() {
    let cfg = config(3, true);
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, auto_keys).unwrap();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(
        report.centers, reference.centers,
        "adapted splits move planes, never values"
    );
    assert_eq!(report.races, 0);
    for d in 0..N_GPUS as u32 {
        assert_eq!(rt.device_mem_used(d), 0, "device {d} clean");
    }
}

#[test]
fn auto_beats_static_within_ten_timesteps() {
    let cfg = config(10, true);
    // The static baseline: the identical construct-scoped program with
    // an equal split (FailStop on a fault-free machine is a no-op).
    let mut static_rt = cfg.runtime(N_GPUS);
    let static_report = run_spread_scoped(&mut static_rt, &cfg, N_GPUS, |t, _| t).unwrap();
    let mut auto_rt = cfg.runtime(N_GPUS);
    let auto_report = run_spread_scoped(&mut auto_rt, &cfg, N_GPUS, auto_keys).unwrap();
    assert_eq!(
        auto_report.centers, static_report.centers,
        "both compute the same physics"
    );
    let speedup = static_report.elapsed.as_secs_f64() / auto_report.elapsed.as_secs_f64();
    eprintln!(
        "heterogeneous Somier ({N_GPUS} GPUs, device 0 at 1/{SLOW_FACTOR} compute): \
         static {:?}, auto {:?}, speedup {speedup:.2}x",
        static_report.elapsed, auto_report.elapsed
    );
    assert!(
        speedup >= 1.3,
        "auto must converge within 10 timesteps: static {:?} / auto {:?} = {speedup:.2}x",
        static_report.elapsed,
        auto_report.elapsed
    );
}

#[test]
fn auto_learns_to_shift_planes_off_the_slow_device() {
    let cfg = config(5, true);
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, &cfg, N_GPUS, auto_keys).unwrap();
    let profiles = rt.events::<ConstructProfile>();
    assert!(!profiles.is_empty(), "auto launches record profiles");
    // Every Somier kernel key ends up with less weight on the slow
    // device 0 than on device 1.
    for key in [
        "somier-forces",
        "somier-accelerations",
        "somier-velocities",
        "somier-positions",
        "somier-centers",
    ] {
        let last = profiles
            .iter()
            .rev()
            .find(|p| p.key == key)
            .unwrap_or_else(|| panic!("no profiles for {key}"));
        assert_eq!(last.weights.len(), N_GPUS);
        assert!(
            last.weights[0] < last.weights[1],
            "{key}: final weights {:?} must favor the fast device",
            last.weights
        );
        let learned = rt.adaptive_weights(key).expect("store keeps the key");
        assert!(learned[0] < learned[1], "{key}: {learned:?}");
    }
    // Launch numbering is dense per key.
    let forces: Vec<u64> = profiles
        .iter()
        .filter(|p| p.key == "somier-forces")
        .map(|p| p.launch)
        .collect();
    assert_eq!(forces, (0..forces.len() as u64).collect::<Vec<_>>());
}

#[test]
fn auto_is_harmless_on_a_uniform_machine() {
    let cfg = config(3, false);
    let mut rt = cfg.runtime(N_GPUS);
    let report = run_spread_scoped(&mut rt, &cfg, N_GPUS, auto_keys).unwrap();
    let reference = run_reference(&cfg, cfg.buffer_planes(N_GPUS));
    assert_eq!(report.centers, reference.centers);
    // And deterministic: the same run gives the same virtual time.
    let mut rt2 = cfg.runtime(N_GPUS);
    let report2 = run_spread_scoped(&mut rt2, &cfg, N_GPUS, auto_keys).unwrap();
    assert_eq!(report.elapsed, report2.elapsed);
    assert_eq!(report.centers, report2.centers);
}
