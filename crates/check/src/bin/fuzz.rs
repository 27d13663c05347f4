//! Deterministic conformance fuzzer.
//!
//! ```text
//! cargo run --release -p spread-check --bin fuzz -- \
//!     [--programs N] [--interleavings K] [--seed S] [--faults] \
//!     [--pressure] [--auto] [--peer] [--stragglers] [--integrity] [--overlap] \
//!     [--inject stencil|reduce|recovery|spill|peer|rescue|integrity|overlap]
//! ```
//!
//! Checks `N` generated programs (seeds `mix(S, 0..N)`), each under the
//! FIFO policy plus `K − 1` seeded tie-break permutations, against the
//! sequential oracle. `--faults` attaches seeded fault plans (device
//! loss at time zero under fail-stop or redistribute, transient copy
//! bursts). `--pressure` generates memory-pressure programs instead —
//! tiny device capacities plus sustained OOM windows — and checks the
//! exact degradation-event sequence against the oracle's admission
//! plan. `--auto` generates `spread_schedule(auto)` programs with
//! repeated construct keys and additionally requires every realized
//! adaptive split to be a valid `StaticWeighted` plan. `--peer`
//! generates halo-exchange programs and checks them differentially:
//! host-forced runs against one `exchange(auto)` run that must match
//! the oracle bit-for-bit while performing exactly the predicted
//! device-to-device route set. `--stragglers` generates programs with
//! one device's compute slowed 10-16x under
//! `spread_straggler(steal|replicate)`: results must stay bit-identical
//! to the fault-free oracle and every recorded rescue must be
//! structurally sound (exactly one commit, healthy target).
//! `--integrity` generates programs whose devices are armed with silent
//! bit-flip tokens under `spread_integrity(heal)`: results must stay
//! bit-identical to the fault-free oracle and the healed-commit ledger
//! must match the armed token count per device. `--overlap` generates
//! programs whose spread constructs all carry `spread_overlap(depth)`:
//! results must stay bit-identical to the overlap-blind oracle and the
//! recorded pipeline ledger must match the closed-form piece count with
//! every staged sub-slice committing at the whole-piece boundary. Exits
//! non-zero on any disagreement or
//! race report, printing the failing seed so `replay -- <seed>`
//! reproduces it.

use std::process::ExitCode;

use spread_check::{fuzz, pretty, CheckConfig, Fault, Mode};

struct Args {
    programs: usize,
    seed: u64,
    cfg: CheckConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        programs: 200,
        seed: 1,
        cfg: CheckConfig::default(),
    };
    let mut modes = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--programs" => {
                args.programs = value("--programs")?
                    .parse()
                    .map_err(|e| format!("--programs: {e}"))?
            }
            "--interleavings" => {
                args.cfg.interleavings = value("--interleavings")?
                    .parse()
                    .map_err(|e| format!("--interleavings: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--inject" => {
                let f = value("--inject")?;
                args.cfg.fault =
                    Some(Fault::parse(&f).ok_or_else(|| format!("unknown fault `{f}`"))?);
            }
            other => match Mode::from_flag(other) {
                Some(mode) => modes.push(mode),
                None => return Err(format!("unknown flag `{other}`")),
            },
        }
    }
    args.cfg.mode = Mode::exclusive(&modes)?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            eprintln!(
                "usage: fuzz [--programs N] [--interleavings K] [--seed S] [--faults] \
                 [--pressure] [--auto] [--peer] [--stragglers] [--integrity] [--overlap] \
                 [--inject stencil|reduce|recovery|spill|peer|rescue|integrity|overlap]"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let mode = cfg.mode.flag();
    println!(
        "spread-check fuzz: {} program(s) x {} interleaving(s), seed {}{}{}",
        args.programs,
        cfg.interleavings,
        args.seed,
        mode.map_or(String::new(), |(_, what)| format!(", {what}")),
        match cfg.fault {
            Some(f) => format!(", injected fault {f:?}"),
            None => String::new(),
        }
    );
    let step = (args.programs / 10).max(1);
    let report = fuzz(args.seed, args.programs, &cfg, |done, failed| {
        if done % step == 0 || done == args.programs {
            println!("  {done}/{} checked, {failed} failure(s)", args.programs);
        }
    });
    if report.failures.is_empty() {
        println!(
            "OK: {} program(s), {} execution(s), oracle agreement everywhere, 0 races",
            report.programs, report.executions
        );
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        println!("\nFAIL seed {}: {}", f.seed, f.failure);
        println!("{}", pretty::listing(&spread_check::gen_for(f.seed, &cfg)));
        println!(
            "reproduce: cargo run -p spread-check --bin replay -- {}{}{}",
            f.seed,
            mode.map_or(String::new(), |(flag, _)| format!(" {flag}")),
            cfg.fault
                .map_or(String::new(), |f| format!(" --inject {}", f.name()))
        );
    }
    println!(
        "\n{} of {} program(s) FAILED",
        report.failures.len(),
        report.programs
    );
    ExitCode::FAILURE
}
