//! Implementation 1: *One Buffer at a time* (§V-A).
//!
//! The grid is split along the outermost dimension into buffers sized to
//! the devices' combined memory. Each time step processes buffers
//! sequentially: map in → five kernels → map out.
//!
//! Two variants:
//! * [`run_target_baseline`] — paper Listing 9: existing `target`
//!   directive set, one GPU, blocking constructs.
//! * [`run_spread`] — paper Listing 10: `target spread` directive set;
//!   each buffer is divided into per-device chunks
//!   (`chunk = buffer_size / num_devices`), transfers and kernels are
//!   `nowait` with chunk-level `depend` chains, and `taskgroup` barriers
//!   separate the mapping and compute phases.
//!
//! The shared machinery, [`build_range_pipeline`], expresses one range's
//! processing as an *asynchronous* three-stage pipeline (map-in group →
//! kernel group → map-out group, chained through group gates), so the
//! Two Buffers and Double Buffering implementations can run several
//! pipelines concurrently — the whole point of those variants.

use std::cell::RefCell;
use std::rc::Rc;

use spread_core::prelude::*;
use spread_rt::directives::{Target, TargetEnterData, TargetExitData};
use spread_rt::map::{from, to};
use spread_rt::{HostArray, RtError, Runtime, Scope, TaskId};

use crate::arrays::SomierArrays;
use crate::config::SomierConfig;
use crate::kernels;
use crate::report::SomierReport;

/// A continuation hook passed through the pipeline builder.
pub(crate) type Hook = Box<dyn FnOnce(&mut Scope<'_>)>;

/// Element range of planes `[p0, p1)`.
fn plane_elems(n2: usize, p0: usize, p1: usize) -> std::ops::Range<usize> {
    p0 * n2..p1 * n2
}

/// Element range of planes `[p0, p1)` with a clamped ±1-plane halo.
fn plane_elems_halo(n: usize, n2: usize, p0: usize, p1: usize) -> std::ops::Range<usize> {
    p0.saturating_sub(1) * n2..(p1 + 1).min(n) * n2
}

/// Paper Listing 9: baseline with `target` directives on device 0.
pub fn run_target_baseline(rt: &mut Runtime, cfg: &SomierConfig) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(1);
    let mut centers = [0.0f64; 3];

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let halo = plane_elems_halo(n, n2, b0, b1);
                let body = plane_elems(n2, b0, b1);

                // Map data from host to the device (all 12 grids; X with
                // halos for the stencil).
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

                // The five kernels, blocking, in order (Listing 9 uses
                // no nowait). Map clauses reuse the held mappings.
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
                    // Centers: the manual reduction — per-plane partials
                    // come home with a from-map.
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

                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
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
/// chains) over planes `[b0, b1)`.
fn launch_kernels(
    s: &mut Scope<'_>,
    cfg: &SomierConfig,
    arr: &SomierArrays,
    devices: &[u32],
    b0: usize,
    b1: usize,
    chunk: usize,
) -> Result<(), RtError> {
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();
    let spread = || {
        TargetSpread::devices(devices.to_vec())
            .with_schedule(SpreadSchedule::static_chunk(chunk))
            .nowait()
    };
    // forces: in X (halo), out F.
    {
        let mut t = spread();
        for c in 0..3 {
            t = t
                .map(spread_to(arr.x[c], x_halo))
                .depend_in(arr.x[c], x_halo);
        }
        for c in 0..3 {
            t = t.map(spread_to(arr.f[c], body)).depend_out(arr.f[c], body);
        }
        t.parallel_for(s, b0..b1, kernels::forces(cfg, arr))?;
    }
    // accelerations: in F, out A.
    {
        let mut t = spread();
        for c in 0..3 {
            t = t.map(spread_to(arr.f[c], body)).depend_in(arr.f[c], body);
        }
        for c in 0..3 {
            t = t.map(spread_to(arr.a[c], body)).depend_out(arr.a[c], body);
        }
        t.parallel_for(s, b0..b1, kernels::accelerations(cfg, arr))?;
    }
    // velocities: in A, inout V.
    {
        let mut t = spread();
        for c in 0..3 {
            t = t.map(spread_to(arr.a[c], body)).depend_in(arr.a[c], body);
        }
        for c in 0..3 {
            t = t
                .map(spread_to(arr.v[c], body))
                .depend_in(arr.v[c], body)
                .depend_out(arr.v[c], body);
        }
        t.parallel_for(s, b0..b1, kernels::velocities(cfg, arr))?;
    }
    // positions: in V, inout X.
    {
        let mut t = spread();
        for c in 0..3 {
            t = t.map(spread_to(arr.v[c], body)).depend_in(arr.v[c], body);
        }
        for c in 0..3 {
            t = t
                .map(spread_to(arr.x[c], body))
                .depend_in(arr.x[c], body)
                .depend_out(arr.x[c], body);
        }
        t.parallel_for(s, b0..b1, kernels::positions(cfg, arr))?;
    }
    // centers: in X, out partials (the manual reduction).
    {
        let mut t = spread();
        for c in 0..3 {
            t = t.map(spread_to(arr.x[c], body)).depend_in(arr.x[c], body);
        }
        for c in 0..3 {
            t = t
                .map(spread_from(arr.partials[c], |ch| ch.range()))
                .depend_out(arr.partials[c], |ch| ch.range());
        }
        t.parallel_for(s, b0..b1, kernels::centers(cfg, arr))?;
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
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let len = b1 - b0;
    let devices: Rc<Vec<u32>> = Rc::new(devices.to_vec());
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

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
    let partials = arr.partials;
    let stage4 = s.task_chained(
        format!("accumulate[{b0}..{b1}]"),
        vec![stage3],
        Some(g_exit),
        move |s| {
            {
                let mut sums = sums.borrow_mut();
                for c in 0..3 {
                    // Element-sequential: matches the reference's
                    // rounding order for bit-exact comparisons.
                    s.with_host(partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
            }
            if let Some(f) = on_done {
                f(s);
            }
        },
    );
    Ok(stage4)
}

/// One Buffer with self-contained per-construct maps and a
/// `spread_resilience(…)` clause: the robustness variant for
/// fault-injected machines.
///
/// Unlike [`run_spread`], which holds mappings across the five kernels
/// through enter/exit data-spread directives, every construct here maps
/// its own inputs in and results out and blocks before the next stage.
/// That makes each per-chunk construct a self-contained unit of
/// recovery: when a device dies mid-run, the runtime replays the whole
/// construct — enter mappings included — on a survivor from the
/// unharmed host image (device→host writes commit only on construct
/// completion), so the recovered run is bit-identical to a fault-free
/// one. Under [`ResiliencePolicy::FailStop`] the same program instead
/// reports the loss deterministically.
pub fn run_spread_resilient(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    policy: ResiliencePolicy,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let chunk = (b1 - b0).div_ceil(n_gpus);
                let spread = || {
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_resilience(policy)
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (resilient)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with self-contained per-construct maps and a
/// `spread_integrity(…)` clause: the data-integrity variant for
/// machines where a device silently corrupts payloads in flight.
///
/// The program is [`run_spread_resilient`]'s construct-scoped shape —
/// every construct maps its own inputs in and results out and blocks
/// before the next stage — so each per-chunk construct is also a
/// self-contained unit of *healing*: every staged device→host commit
/// is re-digested against its source CRC32C at the trust boundary, and
/// under [`IntegrityMode::Heal`] a mismatch discards the tainted
/// payload and re-executes the construct from the unharmed host image
/// (device→host writes commit only after verification). Healing is
/// value-invisible, so the run stays bit-identical to the reference no
/// matter how many flips land; under [`IntegrityMode::Verify`] the
/// same program instead reports the first corruption deterministically.
pub fn run_spread_integrity(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    mode: IntegrityMode,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let chunk = (b1 - b0).div_ceil(n_gpus);
                let spread = || {
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_integrity(mode)
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (integrity)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with self-contained per-construct maps and a
/// `spread_overlap(…)` clause: the software-pipelined variant that
/// overlaps each piece's transfers with its compute.
///
/// The program is [`run_spread_resilient`]'s construct-scoped shape —
/// every construct maps its own inputs in and results out and blocks
/// before the next stage — but each per-device piece is split into
/// `depth` sub-slices and processed as a copy-in → kernel → copy-out
/// software pipeline: sub-slice `k`'s kernel runs while `k+1`'s H2D is
/// in flight and `k-1`'s D2H drains. Device→host writes stay staged
/// until the *whole piece* finishes, so commit granularity — and with
/// it resilience, integrity, and straggler semantics — is unchanged;
/// the pipeline is pure latency hiding and the run is bit-identical to
/// the unpipelined one.
pub fn run_spread_overlap(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    depth: u32,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let chunk = (b1 - b0).div_ceil(n_gpus);
                let spread = || {
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_overlap(OverlapPolicy::Depth(depth))
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (overlap)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with self-contained per-construct maps and a
/// `spread_straggler(…)` clause: the latency-robustness variant for
/// machines where a device runs slow without failing.
///
/// The program is [`run_spread_resilient`]'s construct-scoped shape —
/// every construct maps its own inputs in and results out and blocks
/// before the next stage — so each per-chunk construct is also a
/// self-contained unit of *speculation*: when a chunk's kernel blows
/// the construct's relative progress deadline, the runtime re-executes
/// it on the least-loaded healthy sibling and commits whichever copy's
/// device→host writes land first. First-commit-wins makes the rescue
/// value-invisible, so the run stays bit-identical to the reference
/// regardless of which copy wins; under [`StragglerPolicy::Steal`] the
/// straggler's copy is also cancelled, recovering the construct's
/// latency rather than merely bounding its output.
pub fn run_spread_straggler(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    policy: StragglerPolicy,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let chunk = (b1 - b0).div_ceil(n_gpus);
                let spread = || {
                    // Somier constructs are transfer-heavy, so the first
                    // finisher's span (which sets the deadline) is mostly
                    // H2D time. The default β=4 would only catch extreme
                    // slowdowns; β=2 keeps the deadline sensitive to
                    // compute-side lag without tripping on the transfer
                    // jitter a static split actually exhibits.
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_straggler(policy)
                        .with_straggler_beta(2.0)
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (straggler)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with self-contained per-construct maps and
/// `spread_schedule(auto)`: the profile-guided variant for
/// heterogeneous machines
/// ([`SomierConfig::with_slow_device`](crate::SomierConfig::with_slow_device)).
///
/// The program is [`run_spread_resilient`]'s construct-scoped shape,
/// but every construct's split is resolved by the runtime from the
/// profiles of previous launches under the same stable key (one key
/// per kernel: the five kernels have different compute/transfer
/// ratios, so they learn separate weight vectors). The first launch of
/// each key splits equally — exactly the static baseline — and later
/// launches converge toward equal per-device finish times, shifting
/// planes off a slow device. The runtime must record traces
/// ([`SomierConfig::trace`](crate::SomierConfig::trace)): profiles are
/// computed from spans, and without them the split simply stays equal.
///
/// Adapted splits change *where* planes are computed, never the
/// values: kernels are per-element, the halos are recomputed per
/// launch from each realized chunk, and the centers accumulation stays
/// element-sequential on the host — so centers remain bit-exact
/// against [`run_reference`](crate::reference::run_reference).
pub fn run_spread_auto(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let spread = |key: &'static str| {
                    TargetSpread::devices(devices.clone()).with_schedule(SpreadSchedule::auto(key))
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread("somier-forces");
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread("somier-accelerations");
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread("somier-velocities");
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread("somier-positions");
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread("somier-centers");
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (auto)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with self-contained per-construct maps and a
/// `spread_pressure(…)` clause: the graceful-degradation variant for
/// oversubscribed machines
/// ([`SomierConfig::with_mem_cap_frac`](crate::SomierConfig::with_mem_cap_frac)
/// below 1.0, and/or sustained OOM-pressure windows in the fault plan).
///
/// The program is [`run_spread_resilient`]'s construct-scoped shape —
/// buffer planning still assumes full-size devices — but each spread
/// carries the pressure policy instead of a resilience policy: chunks
/// whose mapped sections no longer fit are re-homed, split, or (under
/// [`PressurePolicy::Spill`]) streamed through the host staging buffer.
/// Degraded runs are slower, never different: centers stay bit-exact
/// against [`run_reference`](crate::reference::run_reference).
pub fn run_spread_pressure(
    rt: &mut Runtime,
    cfg: &SomierConfig,
    n_gpus: usize,
    policy: PressurePolicy,
) -> Result<SomierReport, RtError> {
    let arr = SomierArrays::create(rt, cfg);
    let n = cfg.n;
    let n2 = cfg.plane_elems();
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
                let chunk = (b1 - b0).div_ceil(n_gpus);
                let spread = || {
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_pressure(policy)
                };
                // forces: in X (halo), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (interior writes only).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X, out the per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
        Ok(())
    })?;
    Ok(SomierReport::collect(
        "One Buffer (pressure)",
        n_gpus,
        rt,
        centers,
    ))
}

/// One Buffer with a persistent per-buffer position mapping and an
/// explicit halo-exchange phase: the `exchange(peer|host|auto)`
/// variant.
///
/// The construct-scoped shape of [`run_spread_resilient`] re-maps the
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
/// The five kernels then reuse the held mapping (positions map to the
/// same halo extent → presence reuse, no copy), and the buffer exits
/// with a `from(X[body])`. Returns the report plus the accumulated
/// virtual time of phase 2 — the halo phase the peer bench compares
/// across exchange modes. Results are bit-identical to
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
    let buffer = cfg.buffer_planes(n_gpus);
    let devices: Vec<u32> = (0..n_gpus as u32).collect();
    let mut centers = [0.0f64; 3];
    let mut halo_time = spread_trace::SimDuration::ZERO;
    let x_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..(c.end() + 1).min(n) * n2;
    let body = move |c: ChunkCtx| c.scaled(n2).range();
    // The two single-plane refresh sections of the explicit exchange
    // (empty at the grid boundary, where the stencil needs no halo).
    let left_halo = move |c: ChunkCtx| c.start().saturating_sub(1) * n2..c.start() * n2;
    let right_halo = move |c: ChunkCtx| c.end() * n2..(c.end() + 1).min(n) * n2;

    rt.run(|s| {
        for _step in 0..cfg.timesteps {
            let mut sums = [0.0f64; 3];
            let mut b0 = 0usize;
            while b0 < n {
                let b1 = (b0 + buffer).min(n);
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
                // Body refresh: host-only by construction (no sibling
                // holds these planes), and it (re)establishes the
                // byte-equality the peer planner checks.
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
                let spread = || {
                    TargetSpread::devices(devices.clone())
                        .with_schedule(SpreadSchedule::static_chunk(chunk))
                        .with_resilience(policy)
                };
                // forces: in X (halo, held mapping), out F.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], x_halo));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.f[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::forces(cfg, &arr))?;
                }
                // accelerations: in F, out A.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.f[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.a[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::accelerations(cfg, &arr))?;
                }
                // velocities: in A, inout V.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.a[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.v[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::velocities(cfg, &arr))?;
                }
                // positions: in V, inout X (held mapping: reuse on
                // entry, the host refresh is the explicit from below).
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.v[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_tofrom(arr.x[c], body));
                    }
                    t.parallel_for(s, b0..b1, kernels::positions(cfg, &arr))?;
                }
                // centers: in X (held mapping), out per-plane partials.
                {
                    let mut t = spread();
                    for c in 0..3 {
                        t = t.map(spread_to(arr.x[c], body));
                    }
                    for c in 0..3 {
                        t = t.map(spread_from(arr.partials[c], |ch| ch.range()));
                    }
                    t.parallel_for(s, b0..b1, kernels::centers(cfg, &arr))?;
                }
                // Land the stepped positions and drop the mapping.
                {
                    let mut exit = TargetExitDataSpread::devices(devices.clone())
                        .range(b0, b1 - b0)
                        .chunk_size(chunk)
                        .with_resilience(policy);
                    for c in 0..3 {
                        exit = exit.map(spread_from(arr.x[c], body));
                    }
                    exit.launch(s)?;
                }
                for c in 0..3 {
                    // Element-sequential accumulation: the same rounding
                    // order as the reference (bit-exact comparisons).
                    s.with_host(arr.partials[c], |p| {
                        for &v in &p[b0..b1] {
                            sums[c] += v;
                        }
                    });
                }
                b0 = b1;
            }
            for c in 0..3 {
                centers[c] = sums[c] / (n * n2) as f64;
            }
        }
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
