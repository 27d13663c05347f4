//! Per-layer replays: each layer is measured from outside the program by
//! timing calls into that crate's public functions while replaying the
//! traffic a traced run recorded.

use std::cell::Cell;
use std::hint::black_box;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use spread_core::{distribute, SpreadSchedule};
use spread_devices::{DeviceMemory, Topology};
use spread_sim::{CapacityId, SharedFlowNet, Simulator};
use spread_teams::{LoopSchedule, TeamPool};
use spread_trace::{IntervalSet, Lane, SimTime, Span, SpanKind};

/// One traced host↔device transfer.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    pub device: u32,
    pub to_device: bool,
    pub bytes: u64,
    pub start: SimTime,
}

/// The transfers of a traced timeline, in recording order.
pub fn transfers(spans: &[Span]) -> Vec<Transfer> {
    spans
        .iter()
        .filter_map(|s| {
            let to_device = match s.kind {
                SpanKind::TransferIn => true,
                SpanKind::TransferOut => false,
                _ => return None,
            };
            let Lane::Device { device, .. } = s.lane else {
                return None;
            };
            Some(Transfer {
                device,
                to_device,
                bytes: s.bytes,
                start: s.start,
            })
        })
        .collect()
}

/// What a replay moved: the totals the traced run must reproduce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Moved {
    pub ops: u64,
    pub bytes: u64,
}

/// Replay every transfer through `DeviceMemory`: allocate a buffer of
/// the transfer's size, copy the host bytes in (H2D) or read the device
/// bytes out (D2H), free it. Returns what moved and the host seconds.
pub fn replay_copies(topo: &Topology, xfers: &[Transfer]) -> (Moved, f64) {
    let mut mems: Vec<DeviceMemory> = topo
        .devices
        .iter()
        .map(|d| DeviceMemory::new(d.mem_bytes))
        .collect();
    let max_elems = xfers.iter().map(|x| x.bytes / 8).max().unwrap_or(0) as usize;
    let mut host: Vec<f64> = (0..max_elems).map(|i| i as f64).collect();
    let mut moved = Moved::default();
    let t0 = Instant::now();
    for x in xfers {
        let elems = (x.bytes / 8) as usize;
        let mem = &mut mems[x.device as usize];
        let id = mem
            .alloc_elems(elems)
            .expect("a traced transfer fits its device's memory");
        if x.to_device {
            mem.buffer_mut(id).copy_from_slice(&host[..elems]);
        } else {
            host[..elems].copy_from_slice(mem.buffer(id));
        }
        black_box(mem.buffer(id).first());
        mem.dealloc(id);
        moved.ops += 1;
        moved.bytes += x.bytes;
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(&host);
    (moved, secs)
}

/// What the flow replay measured.
#[derive(Clone, Copy, Debug)]
pub struct FlowReplay {
    pub moved: Moved,
    /// Flows whose completion event fired.
    pub completed: u64,
    /// Bytes the host bus carried (the network's own accounting).
    pub bus_bytes: u64,
    pub events: u64,
    pub bus_saturated_s: f64,
    pub host_s: f64,
}

/// Replay the transfers as flows on a bare `Simulator` and
/// `SharedFlowNet` with the topology's capacities (each transfer
/// crosses its device link, its switch and the host bus, as in
/// `spread_devices::Node`), each started at its traced start time.
pub fn replay_flows(topo: &Topology, xfers: &[Transfer]) -> FlowReplay {
    let net = SharedFlowNet::new();
    let bus = net.add_capacity("host-bus", topo.host_bus_bw);
    let switches: Vec<CapacityId> = (0..topo.n_switches)
        .map(|s| net.add_capacity(format!("switch{s}"), topo.switch_bw))
        .collect();
    let links: Vec<[CapacityId; 2]> = (0..topo.n_devices())
        .map(|d| {
            [
                net.add_capacity(format!("gpu{d}-link-in"), topo.link_bw),
                net.add_capacity(format!("gpu{d}-link-out"), topo.link_bw),
            ]
        })
        .collect();
    let mut sim = Simulator::without_trace();
    let completed = Rc::new(Cell::new(0u64));
    let mut moved = Moved::default();
    let t0 = Instant::now();
    for x in xfers {
        let d = x.device as usize;
        let caps = vec![
            links[d][usize::from(!x.to_device)],
            switches[topo.switch_of[d]],
            bus,
        ];
        let (net, completed, bytes) = (net.clone(), Rc::clone(&completed), x.bytes);
        sim.schedule_at(
            x.start,
            Box::new(move |sim: &mut Simulator| {
                net.start_flow(
                    sim,
                    bytes,
                    caps,
                    Box::new(move |_: &mut Simulator| completed.set(completed.get() + 1)),
                );
            }),
        );
        moved.ops += 1;
        moved.bytes += x.bytes;
    }
    sim.run_until_idle();
    let host_s = t0.elapsed().as_secs_f64();
    FlowReplay {
        moved,
        completed: completed.get(),
        bus_bytes: net.bytes_through(bus),
        events: sim.executed(),
        bus_saturated_s: net.saturated_seconds(bus),
        host_s,
    }
}

/// Mean host microseconds of one empty-body `TeamPool::parallel_for`
/// over one iteration per member, at team size `threads`.
pub fn dispatch_us(threads: usize, launches: usize) -> f64 {
    let pool = TeamPool::new(threads);
    let run = |n: usize| {
        for _ in 0..n {
            pool.parallel_for(0..threads, LoopSchedule::StaticBlocked, |r, tid| {
                black_box((r, tid));
            });
        }
    };
    run(launches / 10 + 1);
    let t0 = Instant::now();
    run(launches);
    t0.elapsed().as_secs_f64() * 1e6 / launches.max(1) as f64
}

/// One construct's distribution shape.
#[derive(Clone, Debug)]
pub struct Shape {
    pub range: Range<usize>,
    pub devices: Vec<u32>,
    pub schedule: SpreadSchedule,
}

/// Mean host microseconds of `spread_core::distribute` per shape, over
/// `reps` passes.
pub fn distribute_us(shapes: &[Shape], reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for s in shapes {
            black_box(distribute(
                black_box(s.range.clone()),
                &s.devices,
                &s.schedule,
            ));
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (reps * shapes.len()).max(1) as f64
}

/// Virtual engine occupancy summed over `devices`, from
/// `spread_trace::profile_window` over the whole run, plus the idle
/// time: window minus the union of the device's engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub dma_s: f64,
    pub kernel_s: f64,
    pub overlap_s: f64,
    pub idle_s: f64,
}

pub fn busy(spans: &[Span], devices: &[u32], end: SimTime) -> Busy {
    let mut b = Busy::default();
    for p in spread_trace::profile_window(spans, devices, SimTime::ZERO, end) {
        b.dma_s += (p.copy_in + p.copy_out + p.peer).as_secs_f64();
        b.kernel_s += p.kernel.as_secs_f64();
        b.overlap_s += p.overlap.as_secs_f64();
        let engines = IntervalSet::from_intervals(
            spans
                .iter()
                .filter(|s| matches!(s.lane, Lane::Device { device, .. } if device == p.device))
                .map(|s| (s.start, s.end.min(end))),
        );
        b.idle_s += engines
            .complement_within(SimTime::ZERO, end)
            .total()
            .as_secs_f64();
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use spread_somier::one_buffer::{run_spread, run_spread_overlap};
    use spread_somier::SomierConfig;

    /// Run a small traced Somier program and check that each replay
    /// reproduces the traced totals exactly.
    fn check_replays(cfg: &SomierConfig, overlap: bool) {
        let mut rt = cfg.runtime(4);
        if overlap {
            run_spread_overlap(&mut rt, cfg, 4, 4).expect("overlap run");
        } else {
            run_spread(&mut rt, cfg, 4).expect("one buffer run");
        }
        let tl = rt.timeline();
        let xfers = transfers(tl.spans());
        let h2d: u64 = xfers.iter().filter(|x| x.to_device).map(|x| x.bytes).sum();
        let d2h: u64 = xfers.iter().filter(|x| !x.to_device).map(|x| x.bytes).sum();
        let launches = tl
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count();
        assert!(
            h2d > 0 && d2h > 0 && launches > 0,
            "traced counts must be nonzero"
        );
        let total = Moved {
            ops: xfers.len() as u64,
            bytes: h2d + d2h,
        };

        let topo = cfg.topology(4);
        let (copied, _) = replay_copies(&topo, &xfers);
        assert_eq!(copied, total, "the copy replay moves every traced byte");

        let flows = replay_flows(&topo, &xfers);
        assert_eq!(
            flows.moved, total,
            "the flow replay starts every traced transfer"
        );
        assert_eq!(flows.completed, total.ops, "every replayed flow completes");
        // The network's own bus accounting runs slightly over: each
        // completion fires 1 ns late and `progress_to` counts rate x dt
        // past a flow's last byte. Allow that slack only.
        assert!(
            flows.bus_bytes >= total.bytes && flows.bus_bytes - total.bytes <= total.bytes / 200,
            "bus carried {} B for {total:?}",
            flows.bus_bytes
        );
        assert!(flows.events >= 2 * total.ops);
        assert!(flows.bus_saturated_s > 0.0);
    }

    #[test]
    fn one_buffer_replays_reproduce_the_traced_totals() {
        check_replays(&SomierConfig::test_small(24, 1), false);
    }

    #[test]
    fn overlap_replays_reproduce_the_traced_totals() {
        check_replays(
            &SomierConfig::test_small(24, 1).with_single_queue(false),
            true,
        );
    }

    #[test]
    fn distribute_replay_times_every_shape() {
        let shapes = vec![Shape {
            range: 0..10,
            devices: vec![0, 1],
            schedule: SpreadSchedule::static_chunk(3),
        }];
        assert!(distribute_us(&shapes, 2) > 0.0);
    }
}
