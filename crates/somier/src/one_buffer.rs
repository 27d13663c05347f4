//! Implementation 1: *One Buffer at a time* (§V-A).
//!
//! The grid is split along the outermost dimension into buffers sized to
//! the devices' combined memory. Each time step processes buffers
//! sequentially: map in → five kernels → map out.
//!
//! Variants:
//! * [`run_target_baseline`] — paper Listing 9: existing `target`
//!   directive set, one GPU, blocking constructs.
//! * [`run_spread`] — paper Listing 10: `target spread` directive set;
//!   each buffer is divided into per-device chunks
//!   (`chunk = buffer_size / num_devices`), transfers and kernels are
//!   `nowait` with chunk-level `depend` chains, and `taskgroup` barriers
//!   separate the mapping and compute phases.
//! * [`run_spread_scoped`] — the construct-scoped program every
//!   extension clause rides on: each of the five kernels is one blocking
//!   `target spread` that maps its own inputs and results, and the
//!   caller adds its clauses to every construct.
//! * [`run_spread_peer`] — the scoped kernels around a held position
//!   mapping refreshed by an explicit halo exchange.
//!
//! The shared machinery, [`build_range_pipeline`], expresses one range's
//! processing as an *asynchronous* three-stage pipeline (map-in group →
//! kernel group → map-out group, chained through group gates), so the
//! Two Buffers and Double Buffering implementations can run several
//! pipelines concurrently — the whole point of those variants.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use spread_core::prelude::*;
use spread_rt::directives::{Target, TargetEnterData, TargetExitData};
use spread_rt::map::{from, to};
use spread_rt::{HostArray, KernelSpec, RtError, Runtime, Scope, TaskId};

use crate::arrays::SomierArrays;
use crate::config::SomierConfig;
use crate::kernels;
use crate::report::SomierReport;

/// A continuation hook passed through the pipeline builder.
pub(crate) type Hook = Box<dyn FnOnce(&mut Scope<'_>)>;

/// Element range of planes `[p0, p1)`.
fn plane_elems(n2: usize, p0: usize, p1: usize) -> Range<usize> {
    p0 * n2..p1 * n2
}

/// Element range of planes `[p0, p1)` with a clamped ±1-plane halo.
fn plane_elems_halo(n: usize, n2: usize, p0: usize, p1: usize) -> Range<usize> {
    p0.saturating_sub(1) * n2..(p1 + 1).min(n) * n2
}

/// Which section of a chunk a kernel argument covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Extent {
    /// The chunk's planes.
    Body,
    /// The chunk's planes plus the ±1-plane stencil halo.
    Halo,
    /// One per-plane partial per plane (the centers reduction).
    Partials,
}

/// The per-chunk section expression of `e`.
fn section(
    cfg: &SomierConfig,
    e: Extent,
) -> impl Fn(ChunkCtx) -> Range<usize> + Copy + Send + Sync {
    let (n, n2) = (cfg.n, cfg.plane_elems());
    move |c: ChunkCtx| match e {
        Extent::Body => plane_elems(n2, c.start(), c.end()),
        Extent::Halo => plane_elems_halo(n, n2, c.start(), c.end()),
        Extent::Partials => c.range(),
    }
}

/// One of the five kernels of a time step with its data flow:
/// `(name, inputs, input extent, outputs, output extent, whether the
/// kernel also reads its outputs, kernel)`.
type Stage = (
    &'static str,
    [HostArray; 3],
    Extent,
    [HostArray; 3],
    Extent,
    bool,
    KernelSpec,
);

/// The five kernels, in program order.
#[rustfmt::skip]
fn stages(cfg: &SomierConfig, arr: &SomierArrays) -> [Stage; 5] {
    use Extent::{Body, Halo, Partials};
    [
        // forces: in X (halo), out F.
        ("forces", arr.x, Halo, arr.f, Body, false, kernels::forces(cfg, arr)),
        // accelerations: in F, out A.
        ("accelerations", arr.f, Body, arr.a, Body, false, kernels::accelerations(cfg, arr)),
        // velocities: in A, inout V.
        ("velocities", arr.a, Body, arr.v, Body, true, kernels::velocities(cfg, arr)),
        // positions: in V, inout X (interior writes only).
        ("positions", arr.v, Body, arr.x, Body, true, kernels::positions(cfg, arr)),
        // centers: in X, out the per-plane partials (the manual reduction).
        ("centers", arr.x, Body, arr.partials, Partials, false, kernels::centers(cfg, arr)),
    ]
}

/// Add planes `[b0, b1)` of the centers partials to `sums`,
/// element-sequentially: the same rounding order as the reference
/// (bit-exact comparisons).
fn fold_partials(s: &Scope<'_>, arr: &SomierArrays, b0: usize, b1: usize, sums: &mut [f64; 3]) {
    for c in 0..3 {
        s.with_host(arr.partials[c], |p| {
            for &v in &p[b0..b1] {
                sums[c] += v;
            }
        });
    }
}

/// The blocking buffer loop: every time step runs `buffer(s, b0, b1)`
/// on each buffer of `cfg.buffer_planes(n_gpus)` planes in turn, folds
/// that buffer's centers partials, and averages the sums into the
/// step's centers. Returns the last step's centers.
fn run_buffers(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    n_gpus: usize,
    mut buffer: impl FnMut(&mut Scope<'_>, usize, usize) -> Result<(), RtError>,
) -> Result<[f64; 3], RtError> {
    let n = cfg.n;
    let planes = cfg.buffer_planes(n_gpus);
    let mut centers = [0.0f64; 3];
    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + planes).min(n);
                buffer(s, b0, b1)?;
                fold_partials(s, arr, b0, b1, &mut sums);
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * cfg.plane_elems()) as f64;
            }
        }
        Ok(())
    })?;
    Ok(centers)
}

/// Paper Listing 9: baseline with `target` directives on device 0.
pub fn run_target_baseline(rt: &mut Runtime, cfg: &SomierConfig) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let centers = run_buffers(rt, cfg, &arr, 1, |s, b0, b1| {
        let halo = plane_elems_halo(n, n2, b0, b1);
        let body = plane_elems(n2, b0, b1);

        // Map data from host to the device (all 12 grids; X with halos
        // for the stencil).
        let mut enter = TargetEnterData::device(0);
        for c in 0..3 {
            enter = enter.map(to(arr.x[c], halo.clone()));
        }
        for g in [arr.v, arr.a, arr.f] {
            for c in 0..3 {
                enter = enter.map(to(g[c], body.clone()));
            }
        }
        enter.launch(s)?;

        // The five kernels, blocking, in order (Listing 9 uses no
        // nowait). Map clauses reuse the held mappings.
        let with_maps = |mut t: Target, xs: bool, grids: &[[HostArray; 3]]| {
            if xs {
                for c in 0..3 {
                    t = t.map(to(arr.x[c], halo.clone()));
                }
            }
            for g in grids {
                for c in 0..3 {
                    t = t.map(to(g[c], body.clone()));
                }
            }
            t
        };
        with_maps(Target::device(0), true, &[arr.f]).parallel_for(
            s,
            b0..b1,
            kernels::forces(cfg, &arr),
        )?;
        with_maps(Target::device(0), false, &[arr.f, arr.a]).parallel_for(
            s,
            b0..b1,
            kernels::accelerations(cfg, &arr),
        )?;
        with_maps(Target::device(0), false, &[arr.a, arr.v]).parallel_for(
            s,
            b0..b1,
            kernels::velocities(cfg, &arr),
        )?;
        {
            let mut t = Target::device(0);
            for c in 0..3 {
                t = t.map(to(arr.v[c], body.clone()));
                t = t.map(to(arr.x[c], halo.clone()));
            }
            t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
        }
        {
            // Centers: the manual reduction — per-plane partials come
            // home with a from-map.
            let mut t = Target::device(0);
            for c in 0..3 {
                t = t.map(to(arr.x[c], halo.clone()));
                t = t.map(from(arr.partials[c], b0..b1));
            }
            t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
        }

        // Map results back and release.
        let mut exit = TargetExitData::device(0);
        for g in [arr.x, arr.v, arr.a, arr.f] {
            for c in 0..3 {
                exit = exit.map(from(g[c], body.clone()));
            }
        }
        exit.launch(s)?;
        Ok(())
    })?;
    Ok(SomierReport::collect(
        crate::SomierImpl::OneBufferTarget.label(),
        1,
        rt,
        centers,
    ))
}

/// Launch the five spread kernels (`nowait`, chunk-level `depend`
/// chains) over planes `[b0, b1)`. The grids are held by the enclosing
/// data region, so their maps reuse the held images; the partials are
/// not, and come home with a from-map.
fn launch_kernels(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    devices: &[u32],
    b0: usize,
    b1: usize,
    chunk: usize,
) -> Result<(), RtError> {
    for (_, ins, in_ext, outs, out_ext, inout, kernel) in stages(cfg, arr) {
        let (in_sec, out_sec) = (section(cfg, in_ext), section(cfg, out_ext));
        let mut t = TargetSpread::devices(devices.to_vec())
            .with_schedule(SpreadSchedule::static_chunk(chunk))
            .nowait();
        for a in ins {
            t = t.map(spread_to(a, in_sec)).depend_in(a, in_sec);
        }
        for a in outs {
            t = if out_ext == Extent::Partials {
                t.map(spread_from(a, out_sec))
            } else {
                t.map(spread_to(a, out_sec))
            };
            if inout {
                t = t.depend_in(a, out_sec);
            }
            t = t.depend_out(a, out_sec);
        }
        t.parallel_for(s, b0..b1, kernel)?;
    }
    Ok(())
}

/// Build the asynchronous processing pipeline for planes `[b0, b1)`:
///
/// ```text
/// [enter-data-spread chunks]        — group 1 ("taskgroup { enter }")
///        ▼ gate                       (after_map_in hook fires here)
/// [5 spread kernels w/ depends]     — group 2 ("taskgroup { kernels }")
///        ▼ gate
/// [exit-data-spread chunks]         — group 3 ("taskgroup { exit }")
///        ▼ gate
/// [accumulate centers partials; on_done continuation]
/// ```
///
/// Returns the final stage's task id (drain it for blocking semantics).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_range_pipeline(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    devices: &[u32],
    b0: usize,
    b1: usize,
    chunk: usize,
    sums: Rc<RefCell<[f64; 3]>>,
    after_map_in: Option<Hook>,
    on_done: Option<Hook>,
) -> Result<TaskId, RtError> {
    let len = b1 - b0;
    let devices: Rc<Vec<u32>> = Rc::new(devices.to_vec());
    let x_halo = section(cfg, Extent::Halo);
    let body = section(cfg, Extent::Body);

    let g_enter = s.group_create();
    let g_kernels = s.group_create();
    let g_exit = s.group_create();

    // Phase 1: map data from host to devices asynchronously.
    s.with_group(g_enter, |s| -> Result<(), RtError> {
        let mut enter = TargetEnterDataSpread::devices(devices.iter().copied())
            .range(b0, len)
            .chunk_size(chunk)
            .nowait();
        for c in 0..3 {
            enter = enter.map(spread_to(arr.x[c], x_halo));
        }
        for g in [arr.v, arr.a, arr.f] {
            for c in 0..3 {
                enter = enter.map(spread_to(g[c], body));
            }
        }
        enter.launch(s)?;
        Ok(())
    })?;

    // Phase 2: kernels, gated on the map-in group.
    let stage2 = {
        let cfg = cfg.clone();
        let arr = *arr;
        let devices = Rc::clone(&devices);
        s.task_chained(
            format!("kernels[{b0}..{b1}]"),
            Vec::new(),
            Some(g_enter),
            move |s| {
                if let Some(hook) = after_map_in {
                    hook(s);
                }
                let r = s.with_group(g_kernels, |s| {
                    launch_kernels(s, &cfg, &arr, &devices, b0, b1, chunk)
                });
                if let Err(e) = r {
                    s.fail(e);
                }
            },
        )
    };

    // Phase 3: map results back, gated on the kernel group.
    let stage3 = {
        let arr = *arr;
        let devices = Rc::clone(&devices);
        s.task_chained(
            format!("exit[{b0}..{b1}]"),
            vec![stage2],
            Some(g_kernels),
            move |s| {
                let r = s.with_group(g_exit, |s| -> Result<(), RtError> {
                    let mut exit = TargetExitDataSpread::devices(devices.iter().copied())
                        .range(b0, len)
                        .chunk_size(chunk)
                        .nowait();
                    for g in [arr.x, arr.v, arr.a, arr.f] {
                        for c in 0..3 {
                            exit = exit.map(spread_from(g[c], body));
                        }
                    }
                    exit.launch(s)?;
                    Ok(())
                });
                if let Err(e) = r {
                    s.fail(e);
                }
            },
        )
    };

    // Phase 4: fold this range's centers partials; run the continuation.
    let arr = *arr;
    let stage4 = s.task_chained(
        format!("accumulate[{b0}..{b1}]"),
        vec![stage3],
        Some(g_exit),
        move |s| {
            fold_partials(s, &arr, b0, b1, &mut sums.borrow_mut());
            if let Some(f) = on_done {
                f(s);
            }
        },
    );
    Ok(stage4)
}

/// The five kernels over planes `[b0, b1)` as construct-scoped blocking
/// `target spread`s: each maps its own inputs in and results out.
/// `spread(kernel)` supplies each construct's devices and clauses.
fn launch_scoped_kernels(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    b0: usize,
    b1: usize,
    spread: impl Fn(&'static str) -> TargetSpread,
) -> Result<(), RtError> {
    for (name, ins, in_ext, outs, out_ext, inout, kernel) in stages(cfg, arr) {
        let (in_sec, out_sec) = (section(cfg, in_ext), section(cfg, out_ext));
        let out = if inout { spread_tofrom } else { spread_from };
        spread(name)
            .maps(ins.map(|a| spread_to(a, in_sec)))
            .maps(outs.map(|a| out(a, out_sec)))
            .parallel_for(s, b0..b1, kernel)?;
    }
    Ok(())
}

/// One Buffer with self-contained per-construct maps: the program every
/// extension clause rides on. `clauses(spread, kernel)` adds the
/// caller's clauses to the construct of each of the five kernels
/// (`"forces"`, `"accelerations"`, `"velocities"`, `"positions"`,
/// `"centers"`), on top of the default `devices(0..n_gpus)
/// spread_schedule(static, buffer / n_gpus)`:
///
/// ```no_run
/// # use spread_core::prelude::*;
/// # use spread_somier::{one_buffer::run_spread_scoped, SomierConfig};
/// # let cfg = SomierConfig::test_small(20, 2);
/// # let mut rt = cfg.runtime(4);
/// run_spread_scoped(&mut rt, &cfg, 4, |t, _| {
///     t.with_resilience(ResiliencePolicy::Redistribute)
/// })?;
/// # Ok::<(), spread_rt::RtError>(())
/// ```
///
/// Unlike [`run_spread`], which holds mappings across the five kernels
/// through enter/exit data-spread directives, every construct here maps
/// its own inputs in and results out and blocks before the next stage.
/// That makes each per-chunk construct a self-contained unit of
/// recovery (`spread_resilience`), healing (`spread_integrity`),
/// speculation (`spread_straggler`), admission (`spread_pressure`) and
/// pipelining (`spread_overlap`): a construct is replayed, re-executed
/// or re-placed from the unharmed host image, because device→host
/// writes commit only on construct completion. Every such clause
/// changes where and when planes are computed, never the values, so
/// the centers stay bit-exact against
/// [`run_reference`](crate::reference::run_reference).
///
/// `spread_schedule(auto)` needs one key per kernel (the five kernels
/// have different compute/transfer ratios and learn separate weight
/// vectors), and a traced runtime
/// ([`SomierConfig::trace`](crate::SomierConfig::trace)): profiles are
/// computed from spans, and without them the split stays equal.
pub fn run_spread_scoped(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    clauses: impl Fn(TargetSpread, &'static str) -> TargetSpread,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let centers = run_buffers(rt, cfg, &arr, n_gpus, |s, b0, b1| {
        let chunk = (b1 - b0).div_ceil(n_gpus);
        launch_scoped_kernels(s, cfg, &arr, b0, b1, |kernel| {
            let t = TargetSpread::devices(devices.clone())
                .with_schedule(SpreadSchedule::static_chunk(chunk));
            clauses(t, kernel)
        })
    })?;
    Ok(SomierReport::collect(
        "One Buffer (scoped)",
        n_gpus,
        rt,
        centers,
    ))
}

/// [`run_spread_scoped`] with `spread_overlap(depth)` on every
/// construct: each per-device piece is pipelined over `depth`
/// sub-slices (copy-in → kernel → copy-out), bit-identical to the
/// unpipelined run.
pub fn run_spread_overlap(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    depth: u32,
) -> Result<SomierReport, RtError> {
    run_spread_scoped(rt, cfg, n_gpus, |t, _| {
        t.with_overlap(OverlapPolicy::Depth(depth))
    })
}

/// One Buffer with a persistent per-buffer position mapping and an
/// explicit halo-exchange phase: the `exchange(peer|host|auto)`
/// variant.
///
/// The construct-scoped shape of [`run_spread_scoped`] re-maps the
/// halo'd positions from the host every construct, so neighbor planes
/// always ride the host bus. This variant restructures one buffer
/// iteration around a `target enter/exit data spread` pair holding the
/// positions (halo extent) on-device, and refreshes them with two
/// `target update spread` directives:
///
/// 1. a `to(X[body])` refresh pinned to `exchange(host)` — the bytes
///    genuinely live only on the host (the previous buffer's images
///    were released), and it establishes the sibling byte-equality the
///    peer planner requires;
/// 2. a `to(X[left halo]) to(X[right halo])` refresh carrying the
///    caller's [`ExchangeMode`] — under `auto`, every interior halo
///    plane is valid bit-identical on the neighbouring device's body,
///    so it travels device-to-device; under `host` the same planes
///    round-trip through the host exactly like the paper's runtime.
///
/// The five scoped kernels then reuse the held mapping (positions map
/// to the same halo extent → presence reuse, no copy), and the buffer
/// exits with a `from(X[body])`. Returns the report plus the
/// accumulated virtual time of phase 2 — the halo phase the peer bench
/// compares across exchange modes. Results are bit-identical to
/// [`run_reference`](crate::reference::run_reference) in every mode:
/// both routes move the same bytes.
///
/// `spread_resilience(redistribute)` composes: chunks of a lost device
/// are skipped by the data directives and rebuilt per construct on the
/// first live device, and a peer copy whose source dies mid-flight is
/// silently diverted to the host path by the runtime. One placement
/// caveat: replacements land on the first surviving device of the
/// list, whose persistent halo extent must stay disjoint from the
/// rebuilt chunk's — with `chunk >= 2` planes that holds for any lost
/// device other than the survivor's immediate neighbour (the
/// fault-injection tests lose device 2 of 4). `exchange(peer)` refuses
/// to compose with redistribution (no fallback route is permitted) and
/// requires every non-empty halo to have a live peer source, which
/// only holds when the buffer covers the whole grid.
pub fn run_spread_peer(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    exchange: ExchangeMode,
    policy: ResiliencePolicy,
) -> Result<(SomierReport, spread_trace::SimDuration), RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut halo_time = spread_trace::SimDuration::ZERO;
    let x_halo = section(cfg, Extent::Halo);
    let body = section(cfg, Extent::Body);
    // The two single-plane refresh sections of the explicit exchange
    // (empty at the grid boundary, where the stencil needs no halo).
    let left_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..c.start() * n2;
    let right_halo = move |c: ChunkCtx| c.end() * n2..(c.end() + 1).min(n) * n2;

    let centers = run_buffers(rt, cfg, &arr, n_gpus, |s, b0, b1| {
        let chunk = (b1 - b0).div_ceil(n_gpus);
        let update = || {
            TargetUpdateSpread::devices(devices.clone())
                .range(b0, b1 - b0)
                .chunk_size(chunk)
                .with_resilience(policy)
        };
        // Hold the positions (halo extent) for the whole buffer.
        {
            let mut enter = TargetEnterDataSpread::devices(devices.clone())
                .range(b0, b1 - b0)
                .chunk_size(chunk)
                .with_resilience(policy);
            for c in 0..3 {
                enter = enter.map(spread_alloc(arr.x[c], x_halo));
            }
            enter.launch(s)?;
        }
        // Body refresh: host-only by construction (no sibling holds
        // these planes), and it (re)establishes the byte-equality the
        // peer planner checks.
        {
            let mut up = update().exchange(ExchangeMode::Host);
            for c in 0..3 {
                up = up.to(arr.x[c], body);
            }
            up.launch(s)?;
        }
        // Halo refresh: the timed exchange phase.
        {
            let t0 = s.now();
            let mut up = update().exchange(exchange);
            for c in 0..3 {
                up = up.to(arr.x[c], left_halo).to(arr.x[c], right_halo);
            }
            up.launch(s)?;
            halo_time += s.now() - t0;
        }
        // The five kernels; positions reuse the held mapping on entry,
        // and the host refresh is the explicit exit below.
        launch_scoped_kernels(s, cfg, &arr, b0, b1, |_| {
            TargetSpread::devices(devices.clone())
                .with_schedule(SpreadSchedule::static_chunk(chunk))
                .with_resilience(policy)
        })?;
        // Land the stepped positions and drop the mapping.
        let mut exit = TargetExitDataSpread::devices(devices.clone())
            .range(b0, b1 - b0)
            .chunk_size(chunk)
            .with_resilience(policy);
        for c in 0..3 {
            exit = exit.map(spread_from(arr.x[c], body));
        }
        exit.launch(s)?;
        Ok(())
    })?;
    Ok((
        SomierReport::collect("One Buffer (peer)", n_gpus, rt, centers),
        halo_time,
    ))
}

/// Paper Listing 10: One Buffer with `target spread` on `n_gpus`
/// devices.
pub fn run_spread(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let sums = Rc::new(RefCell::new([0.0f64; 3]));
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                // "each device gets a chunk from a buffer" (Listing 10),
                // unless the config pins a finer granularity.
                let chunk = cfg
                    .chunk_planes_override
                    .map(|p| p.min(b1 - b0))
                    .unwrap_or_else(|| (b1 - b0).div_ceil(n_gpus));
                let done = build_range_pipeline(
                    s,
                    cfg,
                    &arr,
                    &devices,
                    b0,
                    b1,
                    chunk,
                    Rc::clone(&sums),
                    None,
                    None,
                )?;
                // One buffer at a time: block before the next buffer.
                s.drain_task(done)?;
                b0 = b1;
            }
            let sums = sums.borrow();
            for c in 0..3 {
                centers[c] = sums[c] / (n * cfg.plane_elems()) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        crate::SomierImpl::OneBufferSpread.label(),
        n_gpus,
        rt,
        centers,
    ))
}
