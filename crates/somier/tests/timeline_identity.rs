//! Timeline identity guard: small traced Somier `target spread` runs
//! must produce exactly the same timeline — every span's id, lane, kind,
//! label, start, end and bytes — as the pinned references. Any change to
//! the recorder, the planner, the runtime or a Somier driver that
//! reorders, renumbers or retimes a single span changes the hash.
//!
//! The construct-scoped cases are one program under different clauses;
//! on a fault-free machine five of them pin the *same* timeline. Each
//! case also pins the runtime's journal (degradations, rescues,
//! integrity events, peer copies, overlap records, profiles).

use std::fmt::Debug;

use spread_core::prelude::*;
use spread_rt::{
    DegradationEvent, DegradationKind, Event, IntegrityEvent, JournalRecord, OverlapRecord,
    PeerCopyRecord, RescueRecord, Runtime,
};
use spread_sim::FaultPlan;
use spread_somier::one_buffer::{run_spread_overlap, run_spread_peer, run_spread_scoped};
use spread_somier::{run_somier, SomierConfig, SomierImpl};
use spread_trace::{ConstructProfile, SimTime};

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

/// `(record counts, FNV-1a hash)` of a finished runtime's journal, one
/// record list per variant in the order degradations, rescues,
/// integrity events, peer copies, overlap records, profiles.
fn ledger_hash(rt: &Runtime) -> ([usize; 6], u64) {
    fn list<T: JournalRecord + Debug>(rt: &Runtime) -> (usize, String) {
        let v = rt.events::<T>();
        (v.len(), format!("{v:?}"))
    }
    let ledgers = [
        list::<DegradationEvent>(rt),
        list::<RescueRecord>(rt),
        list::<IntegrityEvent>(rt),
        list::<PeerCopyRecord>(rt),
        list::<OverlapRecord>(rt),
        list::<ConstructProfile>(rt),
    ];
    let mut h = Fnv::new();
    for (_, v) in &ledgers {
        h.str(v);
    }
    (ledgers.map(|(n, _)| n), h.0)
}

/// The journal's decision kinds in recording order, run-length encoded.
fn decision_order(rt: &Runtime) -> Vec<(&'static str, usize)> {
    let mut runs: Vec<(&'static str, usize)> = Vec::new();
    for e in rt.journal() {
        let kind = match e {
            Event::Degraded(d) if d.kind == DegradationKind::ChunkSplit => "split",
            Event::Rescue(_) => "rescue",
            _ => "other",
        };
        match runs.last_mut() {
            Some((k, n)) if *k == kind => *n += 1,
            _ => runs.push((kind, 1)),
        }
    }
    runs
}

/// The ledger pin of every run that records no decision.
const NO_DECISIONS: ([usize; 6], u64) = ([0; 6], 7_977_933_990_245_254_121);

#[test]
fn one_buffer_spread_timeline_is_pinned() {
    let cfg = SomierConfig::test_small(24, 2);
    let (_, rt) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    assert_eq!(
        timeline_hash(&rt),
        (512, 16_040_439_699_539_468_344),
        "timeline of the traced One-Buffer spread run changed"
    );
    assert_eq!(
        ledger_hash(&rt),
        NO_DECISIONS,
        "decision records of the One-Buffer spread run changed"
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

/// One pinned variant: how to run it, and the timeline and decision
/// records it must give.
struct Case {
    name: &'static str,
    run: fn() -> Runtime,
    pin: (usize, u64),
    ledger: ([usize; 6], u64),
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
        ledger: NO_DECISIONS,
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
        ledger: NO_DECISIONS,
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
        ledger: NO_DECISIONS,
    },
    Case {
        name: "schedule(auto), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_scoped(&mut rt, &cfg, N_GPUS, auto_keys).unwrap();
            rt
        },
        pin: FAULT_FREE,
        ledger: ([0, 0, 0, 0, 0, 20], 14_611_344_156_971_409_448),
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
        ledger: NO_DECISIONS,
    },
    Case {
        name: "overlap(4), fault-free",
        run: || {
            let (cfg, mut rt) = (cfg(), cfg().runtime(N_GPUS));
            run_spread_overlap(&mut rt, &cfg, N_GPUS, 4).unwrap();
            rt
        },
        pin: (1634, 4_806_999_551_840_065_209),
        ledger: ([0, 0, 0, 0, 80, 0], 13_179_592_634_446_231_106),
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
        ledger: ([0, 0, 0, 72, 0, 0], 10_581_027_831_611_060_352),
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
        ledger: NO_DECISIONS,
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
        ledger: ([0, 0, 3, 0, 0, 0], 6_135_599_477_503_762_958),
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
        ledger: ([0, 6, 0, 0, 0, 0], 14_268_657_488_614_994_811),
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
        ledger: ([16, 0, 0, 0, 0, 0], 1_457_672_930_346_312_294),
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
        ledger: ([0, 0, 0, 0, 0, 60], 13_824_042_404_454_069_656),
    },
    Case {
        name: COMPOSED,
        run: composed,
        pin: (848, 9_980_465_456_449_125_992),
        ledger: ([16, 15, 0, 0, 0, 0], 15_395_820_307_958_361_927),
    },
];

const COMPOSED: &str = "split at 60% + steal, device 1 8x slow from the midpoint";

/// Split and steal together: `heal` rejects both, so this is the
/// composition whose decisions interleave.
fn composed() -> Runtime {
    let cfg = cfg().with_mem_cap_frac(0.6);
    let plan = (0..N_GPUS as u32)
        .fold(FaultPlan::new(0xC0), |p, d| {
            p.sustain_pressure(d, SimTime::ZERO, 20_000)
        })
        .slow_compute(1, clean_midpoint(), SimTime::MAX, 8.0);
    let mut rt = cfg.runtime_with_faults(N_GPUS, plan);
    run_spread_scoped(&mut rt, &cfg, N_GPUS, |t, _| {
        t.with_pressure(PressurePolicy::Split)
            .with_straggler(StragglerPolicy::Steal)
            .with_straggler_beta(2.0)
    })
    .unwrap();
    rt
}

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

#[test]
fn construct_scoped_variant_decisions_are_pinned() {
    let mut changed = Vec::new();
    for case in CASES {
        let rt = (case.run)();
        let got = ledger_hash(&rt);
        if got != case.ledger {
            changed.push(format!(
                "{}: got {got:?}, pinned {:?}",
                case.name, case.ledger
            ));
        }
        if case.name == COMPOSED {
            assert_eq!(
                decision_order(&rt),
                [("split", 8), ("rescue", 5), ("split", 8), ("rescue", 10)],
                "{COMPOSED}: decision order changed"
            );
        }
    }
    assert!(
        changed.is_empty(),
        "decision records changed:\n{}",
        changed.join("\n")
    );
}
