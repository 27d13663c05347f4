//! Replay (and shrink) one fuzzer seed.
//!
//! ```text
//! cargo run -p spread-check --bin replay -- <seed> \
//!     [--interleavings K] [--faults] [--pressure] [--auto] [--peer] \
//!     [--stragglers] [--integrity] [--overlap] \
//!     [--inject stencil|reduce|recovery|spill|peer|rescue|integrity|overlap]
//! ```
//!
//! Regenerates the program for `<seed>`, prints it as a paper-style
//! listing, and re-checks it. On failure the program is shrunk to a
//! minimal counterexample (deterministically) and printed again.

use std::process::ExitCode;

use spread_check::{check_seed, pretty, shrink_seed, CheckConfig, Fault, Mode};

fn parse_args() -> Result<(u64, CheckConfig), String> {
    let mut seed = None;
    let mut cfg = CheckConfig::default();
    let mut modes = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interleavings" => {
                cfg.interleavings = it
                    .next()
                    .ok_or("--interleavings needs a value")?
                    .parse()
                    .map_err(|e| format!("--interleavings: {e}"))?
            }
            "--inject" => {
                let f = it.next().ok_or("--inject needs a value")?;
                cfg.fault = Some(Fault::parse(&f).ok_or_else(|| format!("unknown fault `{f}`"))?);
            }
            s if seed.is_none() && !s.starts_with('-') => {
                seed = Some(s.parse().map_err(|e| format!("seed: {e}"))?)
            }
            other => match Mode::from_flag(other) {
                Some(mode) => modes.push(mode),
                None => return Err(format!("unknown argument `{other}`")),
            },
        }
    }
    cfg.mode = Mode::exclusive(&modes)?;
    Ok((seed.ok_or("missing <seed>")?, cfg))
}

fn main() -> ExitCode {
    let (seed, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("replay: {e}");
            eprintln!(
                "usage: replay <seed> [--interleavings K] [--faults] [--pressure] [--auto] \
                 [--peer] [--stragglers] [--integrity] [--overlap] \
                 [--inject stencil|reduce|recovery|spill|peer|rescue|integrity|overlap]"
            );
            return ExitCode::from(2);
        }
    };
    let p = spread_check::gen_for(seed, &cfg);
    println!("seed {seed} generates:\n");
    println!("{}", pretty::listing(&p));
    match check_seed(seed, &cfg) {
        Ok(()) => {
            println!(
                "OK: oracle agreement under all {} interleaving(s), 0 races",
                cfg.interleavings
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAIL: {failure}\n");
            let (minimal, min_failure) =
                shrink_seed(seed, &cfg).expect("failing seed stays failing");
            println!("shrunk to minimal counterexample:\n");
            println!("{}", pretty::listing(&minimal));
            println!("minimal failure: {min_failure}");
            ExitCode::FAILURE
        }
    }
}
