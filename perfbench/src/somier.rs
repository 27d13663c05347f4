//! The two Somier workloads: the paper's One Buffer cell and the
//! pipelined-overlap machine.

use std::time::Instant;

use spread_bench::centers_checksum;
use spread_core::SpreadSchedule;
use spread_rt::{RtError, Runtime};
use spread_somier::one_buffer::{run_spread, run_spread_overlap};
use spread_somier::reference::run_reference;
use spread_somier::SomierConfig;
use spread_trace::{SimDuration, SpanKind};

use crate::layers::{self, Shape};
use crate::report::{median, peak_rss_bytes, percentile, LayerRow, Outcome, Tracer};

/// Devices of both Somier workloads.
pub const N_GPUS: usize = 4;

/// Paper Table I, `target spread` on 4 GPUs: 8m22.019s for 31 steps.
const PAPER_4GPU_STEP_S: f64 = 502.019 / 31.0;

/// Fewest timed runs per benchmark run, whatever `--seconds` says.
const MIN_UNITS: usize = 3;

/// Pipeline depth of the overlap workload.
const OVERLAP_DEPTH: u32 = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Program {
    /// `run_somier(OneBufferSpread, 4)`: Listing 10.
    OneBuffer,
    /// `run_spread_overlap(OVERLAP_DEPTH)`.
    Overlap,
}

/// What a unit of the workload must reproduce exactly, on every run.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    /// Virtual seconds of one unit.
    pub vtime_s: f64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub dma_ops: u64,
    pub launches: u64,
}

pub struct Spec {
    pub program: Program,
    pub cfg: SomierConfig,
    pub expected: Expected,
}

impl Spec {
    /// The paper's headline cell: n=120, memory ratio 9.66,
    /// default-stream devices, two of its 31 time steps per unit.
    pub fn paper(team_threads: usize) -> Spec {
        let mut cfg = SomierConfig::paper().with_timesteps(2);
        cfg.team_threads = team_threads;
        Spec {
            program: Program::OneBuffer,
            cfg,
            expected: Expected {
                vtime_s: 32.60840973,
                h2d_bytes: 346_982_400,
                d2h_bytes: 331_781_760,
                dma_ops: 648,
                launches: 120,
            },
        }
    }

    /// `export_overlap`'s machine: n=144, separate DMA/compute queues,
    /// kernel costs ×6, 3 time steps.
    pub fn overlap(team_threads: usize) -> Spec {
        let mut cfg = SomierConfig::test_small(144, 3).with_single_queue(false);
        cfg.costs.forces *= 6.0;
        cfg.costs.accel *= 6.0;
        cfg.costs.velocity *= 6.0;
        cfg.costs.position *= 6.0;
        cfg.costs.centers *= 6.0;
        cfg.team_threads = team_threads;
        Spec {
            program: Program::Overlap,
            cfg,
            expected: Expected {
                vtime_s: 0.158810901,
                h2d_bytes: 1_537_781_760,
                d2h_bytes: 859_973_760,
                dma_ops: 5184,
                launches: 720,
            },
        }
    }

    /// Grid nodes times time steps: the work of one unit.
    fn node_updates(&self) -> f64 {
        (self.cfg.n as f64).powi(3) * self.cfg.timesteps as f64
    }

    /// The constructs one unit launches, as distribution shapes:
    /// per buffer, One Buffer runs an enter, five kernels and an exit;
    /// the overlap variant runs five self-mapping kernels.
    pub fn shapes(&self) -> Vec<Shape> {
        let cfg = &self.cfg;
        let buffer = cfg.buffer_planes(N_GPUS);
        let devices: Vec<u32> = (0..N_GPUS as u32).collect();
        let per_buffer = match self.program {
            Program::OneBuffer => 7,
            Program::Overlap => 5,
        };
        let mut shapes = Vec::new();
        for _ in 0..cfg.timesteps {
            let mut b0 = 0;
            while b0 < cfg.n {
                let b1 = (b0 + buffer).min(cfg.n);
                let chunk = (b1 - b0).div_ceil(N_GPUS);
                for _ in 0..per_buffer {
                    shapes.push(Shape {
                        range: b0..b1,
                        devices: devices.clone(),
                        schedule: SpreadSchedule::static_chunk(chunk),
                    });
                }
                b0 = b1;
            }
        }
        shapes
    }
}

/// One run of the program on a fresh runtime.
struct Unit {
    setup_s: f64,
    wall_s: f64,
    result: Result<(String, SimDuration), RtError>,
    rt: Runtime,
}

fn unit(spec: &Spec, trace: bool, tracer: &mut Tracer) -> Unit {
    let mut cfg = spec.cfg.clone();
    cfg.trace = trace;
    let span = tracer.open(if trace { "unit.traced" } else { "unit" }, None);
    let (mut rt, setup_s) = tracer.time("setup", Some(span), || cfg.runtime(N_GPUS));
    let t0 = Instant::now();
    let report = match spec.program {
        Program::OneBuffer => run_spread(&mut rt, &cfg, N_GPUS),
        Program::Overlap => run_spread_overlap(&mut rt, &cfg, N_GPUS, OVERLAP_DEPTH),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.close(span);
    Unit {
        setup_s,
        wall_s,
        result: report.map(|r| (centers_checksum(&r.centers), r.elapsed)),
        rt,
    }
}

/// Check every unit's centers checksum against the reference's (bit for
/// bit) and its virtual time against the expected one; count failures.
fn check_units(
    spec: &Spec,
    results: &[Result<(String, SimDuration), RtError>],
    reference: &str,
    out: &mut Outcome,
) -> Option<SimDuration> {
    println!("centers checksum {reference} (CPU reference)");
    let mut vtime = None;
    for r in results {
        out.attempted += 1;
        match r {
            Err(e) => {
                out.failed += 1;
                out.mismatches.push(format!("run failed: {e:?}"));
            }
            Ok((sum, _)) if sum != reference => {
                out.failed += 1;
                out.mismatches.push(format!(
                    "centers checksum {sum} differs from the CPU reference's {reference}"
                ));
            }
            Ok((_, t)) => {
                if vtime.is_some_and(|v| v != *t) {
                    out.mismatches
                        .push(format!("virtual time {t:?} differs between runs"));
                }
                vtime = Some(*t);
            }
        }
    }
    if let Some(v) = vtime {
        let (got, want) = (v.as_secs_f64(), spec.expected.vtime_s);
        if got.to_bits() != want.to_bits() {
            out.mismatches.push(format!(
                "virtual time {got:?} s differs from the expected {want:?} s"
            ));
        }
    }
    vtime
}

fn note_vtime(spec: &Spec, vtime: Option<SimDuration>, out: &mut Outcome) -> (f64, f64) {
    let v = vtime.map_or(0.0, |v| v.as_secs_f64());
    let err = match spec.program {
        Program::OneBuffer if v > 0.0 => {
            let step = v / spec.cfg.timesteps as f64;
            100.0 * (step - PAPER_4GPU_STEP_S).abs() / PAPER_4GPU_STEP_S
        }
        _ => 0.0,
    };
    out.note("vtime_s", v, "vs");
    if spec.program == Program::OneBuffer {
        out.note("paper_err_pct", err, "%");
    }
    (v, err)
}

/// The untraced run: every end-to-end metric.
pub fn run_e2e(spec: &Spec, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut results = Vec::new();
    let t_start = Instant::now();
    while walls.len() < MIN_UNITS || t_start.elapsed().as_secs_f64() < seconds {
        let u = unit(spec, false, &mut out.tracer);
        setups.push(u.setup_s);
        walls.push(u.wall_s);
        results.push(u.result);
        drop(u.rt);
    }
    // Read the high-water mark before the reference runs, so the check
    // does not inflate it.
    let rss = peak_rss_bytes();
    let (reference, _) = out
        .tracer
        .time("somier.reference", None, || reference(spec));
    let vtime = check_units(spec, &results, &reference, out);
    note_vtime(spec, vtime, out);

    let wall = median(&walls);
    out.wall_s = wall;
    out.set("wall_s", wall);
    out.set("node_updates_per_s", spec.node_updates() / wall);
    out.set(
        "programs_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.set("program_p50_us", wall * 1e6);
    out.set("program_p99_us", percentile(&walls, 99.0) * 1e6);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss as f64 / 1e6);
    out.note("programs", walls.len() as f64, "count");
}

/// The sequential CPU reference's final centers, as a checksum.
fn reference(spec: &Spec) -> String {
    centers_checksum(&run_reference(&spec.cfg, spec.cfg.buffer_planes(N_GPUS)).centers)
}

/// The traced run: alternate untraced and traced units, then replay the
/// last traced unit's traffic through each layer.
pub fn run_traced(spec: &Spec, seconds: f64, team_threads: usize, out: &mut Outcome) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut references = Vec::new();
    let mut results = Vec::new();
    let mut centers = None;
    let mut last: Option<Runtime> = None;
    let t_start = Instant::now();
    while traced.len() < 2 || t_start.elapsed().as_secs_f64() < seconds {
        let u = unit(spec, false, &mut out.tracer);
        plain.push(u.wall_s);
        results.push(u.result);
        drop(u.rt);
        let u = unit(spec, true, &mut out.tracer);
        traced.push(u.wall_s);
        results.push(u.result);
        last = Some(u.rt);
        let (c, t) = out
            .tracer
            .time("somier.reference", None, || reference(spec));
        if centers.as_ref().is_some_and(|r| *r != c) {
            out.mismatches
                .push("the CPU reference is not deterministic".into());
        }
        centers = Some(c);
        references.push(t);
    }
    let rt = last.expect("at least one traced unit ran");
    let reference_s = median(&references);
    let vtime = check_units(spec, &results, &centers.expect("a reference ran"), out);
    let (vtime_s, err) = note_vtime(spec, vtime, out);

    let (timeline, timeline_s) = out.tracer.time("trace.timeline", None, || rt.timeline());
    let spans = timeline.spans();
    let xfers = layers::transfers(spans);
    let h2d: u64 = xfers.iter().filter(|x| x.to_device).map(|x| x.bytes).sum();
    let d2h: u64 = xfers.iter().filter(|x| !x.to_device).map(|x| x.bytes).sum();
    let ops = xfers.len() as u64;
    let launches = spans.iter().filter(|s| s.kind == SpanKind::Kernel).count() as u64;
    let devices: Vec<u32> = (0..N_GPUS as u32).collect();
    let busy = layers::busy(spans, &devices, rt.now());
    let peak_mem = devices
        .iter()
        .map(|&d| rt.device_mem_peak(d))
        .max()
        .unwrap_or(0);

    if h2d == 0 || d2h == 0 || ops == 0 || launches == 0 {
        out.mismatches.push(format!(
            "traced counts are zero: h2d {h2d} d2h {d2h} ops {ops} launches {launches}"
        ));
    }
    let e = spec.expected;
    let got = (h2d, d2h, ops, launches);
    let want = (e.h2d_bytes, e.d2h_bytes, e.dma_ops, e.launches);
    if got != want {
        out.mismatches.push(format!(
            "traced (h2d, d2h, dma_ops, launches) {got:?} differ from the expected {want:?}"
        ));
    }

    let topo = spec.cfg.topology(N_GPUS);
    let ((copied, copy_s), _) = out.tracer.time("devices.copy_replay", None, || {
        layers::replay_copies(&topo, &xfers)
    });
    let (flows, _) = out.tracer.time("sim.flow_replay", None, || {
        layers::replay_flows(&topo, &xfers)
    });
    let total = layers::Moved {
        ops,
        bytes: h2d + d2h,
    };
    if copied != total || flows.moved != total || flows.completed != ops {
        out.mismatches.push(format!(
            "replays do not reproduce the traced totals {total:?}: copies {copied:?}, \
             flows {:?} with {} completed",
            flows.moved, flows.completed
        ));
    }
    let (dispatch_us, _) = out.tracer.time("teams.dispatch", None, || {
        layers::dispatch_us(team_threads, 2000)
    });
    let shapes = spec.shapes();
    let (distribute_us, _) = out.tracer.time("core.distribute", None, || {
        layers::distribute_us(&shapes, 20)
    });

    let wall = median(&plain);
    let traced_wall = median(&traced);
    let dispatch_s = launches as f64 * dispatch_us / 1e6;
    let residual = traced_wall - (reference_s + copy_s + flows.host_s + dispatch_s);
    out.wall_s = traced_wall;

    out.set("somier.reference_s", reference_s);
    out.set("somier.host_overhead_x", wall / reference_s);
    out.set("somier.vtime_s", vtime_s);
    out.set("somier.paper_err_pct", err);
    out.set("devices.copy_s", copy_s);
    out.set("devices.copy_gbps", (h2d + d2h) as f64 / copy_s / 1e9);
    out.set("devices.h2d_bytes", h2d as f64);
    out.set("devices.d2h_bytes", d2h as f64);
    out.set("devices.dma_ops", ops as f64);
    out.set("devices.peak_mem_bytes", peak_mem as f64);
    out.set("devices.dma_busy_s", busy.dma_s);
    out.set("devices.kernel_busy_s", busy.kernel_s);
    out.set("devices.overlap_s", busy.overlap_s);
    out.set("devices.idle_s", busy.idle_s);
    out.set("sim.replay_s", flows.host_s);
    out.set("sim.events", flows.events as f64);
    out.set(
        "sim.ns_per_event",
        flows.host_s * 1e9 / flows.events.max(1) as f64,
    );
    out.set("sim.bus_saturated_s", flows.bus_saturated_s);
    out.set("teams.launches", launches as f64);
    out.set("teams.dispatch_us", dispatch_us);
    out.set("teams.dispatch_s", dispatch_s);
    out.set("core.constructs", shapes.len() as f64);
    out.set("core.distribute_us", distribute_us);
    out.set("trace.spans", spans.len() as f64);
    out.set("trace.timeline_s", timeline_s);
    out.set("trace.overhead_pct", 100.0 * (traced_wall - wall) / wall);
    out.set("rt.residual_s", residual);
    out.note("untraced_wall_s", wall, "s");
    out.note("bus_bytes", flows.bus_bytes as f64, "B");

    out.layers = vec![
        LayerRow {
            layer: "spread-somier",
            what: "run_reference (physics floor)",
            host_s: reference_s,
        },
        LayerRow {
            layer: "spread-devices",
            what: "DeviceMemory alloc/copy/read/dealloc replay",
            host_s: copy_s,
        },
        LayerRow {
            layer: "spread-sim",
            what: "Simulator + SharedFlowNet flow replay",
            host_s: flows.host_s,
        },
        LayerRow {
            layer: "spread-teams",
            what: "launches x empty TeamPool::parallel_for",
            host_s: dispatch_s,
        },
        LayerRow {
            layer: "spread-core",
            what: "distribute over the construct shapes",
            host_s: distribute_us * shapes.len() as f64 / 1e6,
        },
        LayerRow {
            layer: "spread-trace",
            what: "Runtime::timeline (not in wall)",
            host_s: timeline_s,
        },
        LayerRow {
            layer: "spread-rt",
            what: "residual: wall - (somier + devices + sim + teams)",
            host_s: residual,
        },
    ];
}
