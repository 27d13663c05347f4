//! Timeline identity guard: small traced Somier `target spread` runs
//! must produce exactly the same timeline — every span's id, lane, kind,
//! label, start, end and bytes — as the pinned references. Any change to
//! the recorder, the planner, the runtime or a Somier driver that
//! reorders, renumbers or retimes a single span changes the hash.
//!
//! The construct-scoped cases are one program under different clauses;
//! on a fault-free machine five of them pin the *same* timeline.

use spread_core::prelude::*;
use spread_rt::Runtime;
use spread_sim::FaultPlan;
use spread_somier::one_buffer::{run_spread_overlap, run_spread_peer, run_spread_scoped};
use spread_somier::{run_somier, SomierConfig, SomierImpl};
use spread_trace::SimTime;

/// FNV-1a over a byte stream (stable across toolchains, unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// `(span count, FNV-1a hash)` of a finished runtime's timeline.
fn timeline_hash(rt: &Runtime) -> (usize, u64) {
    let tl = rt.timeline();
    let mut h = Fnv::new();
    for s in tl.spans() {
        h.u64(s.id.0);
        h.str(&format!("{:?}", s.lane));
        h.str(&format!("{:?}", s.kind));
        h.str(&s.label);
        h.u64(s.start.as_nanos());
        h.u64(s.end.as_nanos());
        h.u64(s.bytes);
    }
    (tl.len(), h.0)
}

#[test]
fn one_buffer_spread_timeline_is_pinned() {
    let cfg = SomierConfig::test_small(24, 2);
    let (_, rt) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    assert_eq!(
        timeline_hash(&rt),
        (512, 16_040_439_699_539_468_344),
        "timeline of the traced One-Buffer spread run changed"
    );
}

const N_GPUS: usize = 4;

fn cfg() -> SomierConfig {
    SomierConfig::test_small(20, 2)
}

/// Virtual mid-point of the fault-free construct-scoped run.
fn clean_midpoint() -> SimTime {
    let cfg = cfg();
    let mut rt = cfg.runtime(N_GPUS);
    run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| t).unwrap();
    SimTime::from_nanos(rt.elapsed().as_nanos() / 2)
}

/// `spread_schedule(auto)` with one profile key per kernel
/// (`somier-forces`, …).
fn auto_keys(t: TargetSpread, kernel: &'static str) -> TargetSpread {
    t.with_schedule(SpreadSchedule::auto(format!("somier-{kernel}")))
}

/// One pinned variant: how to run it, and the timeline it must give.
struct Case {
    name: &'static str,
    run: fn() -> Runtime,
    pin: (usize, u64),
}

/// The construct-scoped fault-free timeline every clause below shares.
const FAULT_FREE: (usize, u64) = (656, 7_534_114_219_553_208_937);

const CASES: &[Case] = &[
    Case {
        name: "resilient(redistribute), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_resilience(ResiliencePolicy::Redistribute)
            })
            .unwrap();
            rt
        },
        pin: FAULT_FREE,
    },
    Case {
        name: "integrity(heal), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_integrity(IntegrityMode::Heal)
            })
            .unwrap();
            rt
        },
        pin: FAULT_FREE,
    },
    Case {
        name: "straggler(steal), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_straggler(StragglerPolicy::Steal)
                    .with_straggler_beta(2.0)
            })
            .unwrap();
            rt
        },
        pin: FAULT_FREE,
    },
    Case {
        name: "schedule(auto), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, auto_keys).unwrap();
            rt
        },
        pin: FAULT_FREE,
    },
    Case {
        name: "pressure(split), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_pressure(PressurePolicy::Split)
            })
            .unwrap();
            rt
        },
        pin: FAULT_FREE,
    },
    Case {
        name: "overlap(4), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_overlap(&mut rt, &cfg, N_GPUS, 4).unwrap();
            rt
        },
        pin: (1634, 4_806_999_551_840_065_209),
    },
    Case {
        name: "peer exchange(auto), fail-stop",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_peer(
                &mut rt,
                &cfg,
                N_GPUS,
                ExchangeMode::Auto,
                ResiliencePolicy::FailStop,
            )
            .unwrap();
            rt
        },
        pin: (644, 6_674_863_426_019_266_240),
    },
    Case {
        name: "redistribute, device 1 lost at the midpoint",
        run: || {
            let cfg = cfg();
            let plan = FaultPlan::new(42).lose_device(1, clean_midpoint());
            let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_resilience(ResiliencePolicy::Redistribute)
            })
            .unwrap();
            rt
        },
        pin: (667, 12_803_455_209_363_725_948),
    },
    Case {
        name: "heal, single flips on devices 0, 1 and 3",
        run: || {
            let cfg = cfg();
            let plan = FaultPlan::new(11)
                .silent_flips(0, SimTime::ZERO, 1)
                .silent_flips(1, SimTime::ZERO, 1)
                .silent_flips(3, SimTime::ZERO, 1);
            let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_integrity(IntegrityMode::Heal)
            })
            .unwrap();
            rt
        },
        pin: (686, 10_091_997_090_196_732_768),
    },
    Case {
        name: "steal, device 1 8x slow from the midpoint",
        run: || {
            let cfg = cfg();
            let plan = FaultPlan::new(7).slow_compute(1, clean_midpoint(), SimTime::MAX, 8.0);
            let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_straggler(StragglerPolicy::Steal)
                    .with_straggler_beta(2.0)
            })
            .unwrap();
            rt
        },
        pin: (704, 7_810_202_737_842_293_475),
    },
    Case {
        name: "split at 60% memory under sustained pressure",
        run: || {
            let cfg = cfg().with_mem_cap_frac(0.6);
            let plan = (0..N_GPUS as u32).fold(FaultPlan::new(0xD1), |p, d| {
                p.sustain_pressure(d, SimTime::ZERO, 20_000)
            });
            let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
            run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
                t.with_pressure(PressurePolicy::Split)
            })
            .unwrap();
            rt
        },
        pin: (728, 5_108_169_837_801_950_254),
    },
    Case {
        name: "auto on 2 GPUs, device 0 3x slow",
        run: || {
            let cfg = SomierConfig::test_small(20, 3).with_slow_device(0, 3.0);
            let mut rt = cfg.runtime(2);
            run_spread_scoped(&mut rt, &cfg, 2, auto_keys).unwrap();
            rt
        },
        pin: (984, 11_723_426_381_093_176_000),
    },
];

#[test]
fn construct_scoped_variant_timelines_are_pinned() {
    let mut changed = Vec::new();
    for case in CASES {
        let got = timeline_hash(&(case.run)());
        if got != case.pin {
            changed.push(format!("{}: got {got:?}, pinned {:?}", case.name, case.pin));
        }
    }
    assert!(
        changed.is_empty(),
        "timelines changed:\n{}",
        changed.join("\n")
    );
}
