//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs it traced (next to untraced runs, for the
//! tracing overhead) and reports one set of numbers per layer, each
//! measured from outside the program by timing calls into that crate's
//! public functions over the traffic the traced run recorded. Every
//! output is checked (Somier against the CPU reference, fuzz programs
//! against the conformance oracle); the last line of standard output is
//! the JSON result, and any correctness failure exits nonzero.
//! `perfbench/README.md` defines every metric.

mod fuzz;
mod layers;
mod report;
mod somier;

use std::process::ExitCode;

use report::{Outcome, Tracer, END_TO_END, PER_LAYER};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    OneBufferPaper,
    OverlapBalanced,
    FuzzMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::OneBufferPaper,
        Workload::OverlapBalanced,
        Workload::FuzzMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::OneBufferPaper => "onebuffer-paper-4gpu",
            Workload::OverlapBalanced => "overlap-balanced-4gpu",
            Workload::FuzzMixed => "fuzz-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <onebuffer-paper-4gpu|overlap-balanced-4gpu|\
                     fuzz-mixed> --seed <u64> --seconds <1-600> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the run's host spans where the checkout keeps benchmark output.
fn write_spans(name: &str, trace: bool, out: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.trace{}.json", u8::from(trace)));
    std::fs::write(&path, out.tracer.chrome_json())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more team threads than cores: an oversubscribed team makes
    // host wall time a measure of the OS scheduler.
    let team_threads = nproc.min(2);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} team_threads={team_threads} \
         profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut out = Outcome::new(Tracer::new());
    if args.trace {
        // A layer that does not run on this workload reports 0.
        for (name, _) in PER_LAYER {
            out.set(name, 0.0);
        }
    }
    match (args.workload, args.trace) {
        (Workload::FuzzMixed, false) => fuzz::run_e2e(args.seed, args.seconds, &mut out),
        (Workload::FuzzMixed, true) => {
            fuzz::run_traced(args.seed, args.seconds, team_threads, &mut out)
        }
        (w, trace) => {
            let spec = if w == Workload::OneBufferPaper {
                somier::Spec::paper(team_threads)
            } else {
                somier::Spec::overlap(team_threads)
            };
            if trace {
                somier::run_traced(&spec, args.seconds, team_threads, &mut out);
            } else {
                somier::run_e2e(&spec, args.seconds, &mut out);
            }
        }
    }
    match write_spans(args.workload.name(), args.trace, &out) {
        Ok(path) => println!("host spans: {path}"),
        Err(e) => println!("host spans not written: {e}"),
    }
    out.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs in order of appearance in `text`; a workload
    /// has no unit and yields an empty one.
    fn entries(text: &str) -> Vec<(String, String)> {
        let field = |obj: &str, key: &str| {
            obj.split_once(&format!("\"{key}\": \""))
                .and_then(|(_, rest)| rest.split_once('"'))
                .map_or(String::new(), |(v, _)| v.to_string())
        };
        text.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let (head, rest) = json.split_once("\"end_to_end\"").expect("end_to_end");
        let (e2e, layers) = rest.split_once("\"per_layer\"").expect("per_layer");
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries(e2e), owned(&END_TO_END));
        assert_eq!(entries(layers), owned(&PER_LAYER));
        let workloads: Vec<String> =
            entries(head.split_once("\"workloads\"").expect("workloads").1)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload fuzz-mixed --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FuzzMixed, 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload fuzz-mixed --seed -1 --seconds 10 --trace 0",
            "--workload fuzz-mixed --seed 3 --seconds 0 --trace 0",
            "--workload fuzz-mixed --seed 3 --seconds 10 --trace 2",
            "--workload fuzz-mixed --seed 3 --seconds 10",
            "--workload fuzz-mixed --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
