//! # spread-check
//!
//! Model-based conformance harness for the `target spread` directive
//! set, with a semantic oracle and deterministic schedule fuzzing.
//!
//! The pieces:
//!
//! * [`ast`] — a small directive-program AST over the spread builder
//!   surface (spread kernels with static/weighted/dynamic schedules and
//!   `nowait`, halo'd stencils, cross-device reductions, data regions,
//!   raw enter/exit/update statements — including illegal ones);
//! * [`gen`] — a seeded generator: one `u64` ⇒ one program, forever
//!   (optionally with a seeded fault plan: a device dead on arrival
//!   under fail-stop or `spread_resilience(redistribute)`, plus
//!   retry-absorbable transient copy bursts);
//! * [`oracle`] — a thin lowering from programs onto the
//!   `spread-semantics` small-step machine, predicting the final host
//!   state (or the exact `RtError`) from the paper's mapping rules;
//! * [`enumerate`] — bounded model checking: every program up to a
//!   small statement bound over a fixed alphabet, checked exhaustively
//!   instead of sampled;
//! * [`run`] — the executor lowering a program onto the real
//!   [`spread_rt::Runtime`] under a chosen [`TieBreak`] policy;
//! * [`shrink`] — deterministic greedy minimization of failures;
//! * [`pretty`] — paper-listing pseudocode rendering.
//!
//! [`check_seed`] is the heart: generate the program for a seed, predict
//! with the oracle, then execute it under FIFO *plus* several seeded
//! tie-break permutations of the simulator's event queue — every legal
//! interleaving of same-instant events must reproduce the oracle's
//! host arrays, reduction values and mapping tables bit-for-bit, with
//! zero race reports.
//!
//! Pressure mode ([`Mode::Pressure`]) swaps the fault plans for
//! seeded memory-pressure scenarios — tiny device capacities plus
//! sustained OOM windows — and additionally requires the runtime's
//! recorded [`spread_rt::DegradationEvent`] sequence (admission
//! shrinks, chunk splits, host spills) to equal the oracle's exact
//! prediction, while results stay bit-identical.
//!
//! Auto mode ([`Mode::Auto`]) generates `spread_schedule(auto)`
//! programs — blocking, placement-independent kernels with repeated
//! construct keys — and checks the final state against an equal-weight
//! oracle stand-in while requiring every realized adaptive split
//! (recorded as a [`spread_trace::ConstructProfile`]) to be a valid
//! `StaticWeighted` plan.
//!
//! Peer mode ([`Mode::Peer`]) generates halo-exchange programs
//! ([`ast::Stmt::Halo`]) and checks them *differentially*: every
//! interleaving first runs with the exchange forced through the host
//! (the paper's round-trip — it must match the oracle and perform zero
//! peer copies), then one `exchange(auto)` run must reproduce the same
//! bits end to end while performing **exactly** the closed-form
//! device-to-device route set [`oracle::predict_peer_copies`] derives
//! from the generator's halo invariants — no diverted copy, none
//! missing, none extra.
//!
//! Integrity mode ([`Mode::Integrity`]) generates
//! `spread_integrity(heal)` programs with seeded silent-flip bursts
//! armed from time zero ([`ast::IntegritySpec`]): results must match
//! the flip-blind oracle bit-for-bit while the runtime's recorded
//! [`spread_rt::IntegrityEvent`]s equal the closed-form healed-commit
//! ledger — exactly `count` healed commits per flipped device that
//! performs a committing drain.
//!
//! Overlap mode ([`Mode::Overlap`]) generates
//! `spread_overlap(depth)` programs ([`ast::OverlapSpec`]): the
//! pipeline is a pure latency optimization, so the oracle stays
//! overlap-blind and results must match the un-pipelined prediction
//! bit-for-bit, while the recorded [`spread_rt::OverlapRecord`]s match
//! the closed-form piece count with every staged sub-slice committing
//! exactly at the whole-piece boundary and nothing escaping early.
//!
//! ```
//! use spread_check::{check_seed, CheckConfig};
//! assert!(check_seed(1, &CheckConfig::default()).is_ok());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod enumerate;
pub mod gen;
pub mod oracle;
pub mod pretty;
pub mod run;
pub mod shrink;

pub use ast::Program;
pub use spread_sim::TieBreak;

use spread_rt::{
    DegradationEvent, Event, IntegrityEvent, JournalRecord, OverlapRecord, PeerCopyRecord,
    RescueRecord, RtError,
};
use spread_trace::ConstructProfile;

/// A deliberate perturbation injected into one side of the comparison,
/// used to prove the harness catches disagreements (and to exercise
/// replay + shrinking on a reproducible failure). The first three
/// perturb the *oracle*; the spill canary perturbs the *runtime*, so it
/// doubles as proof that a real silent-truncation bug in the spill
/// executor would be flagged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The oracle "forgets" the left halo element of the stencil.
    StencilDropsLeftHalo,
    /// The oracle's host-side reduction fold skips the last element.
    ReduceSkipsLast,
    /// The oracle pretends `spread_resilience(redistribute)` silently
    /// drops the lost device's chunks instead of replaying them — the
    /// canary proving the harness catches recovery divergence.
    RecoveryDropsLostChunk,
    /// The *runtime* silently drops the writes of the last slice of
    /// every host-spilled piece — the canary proving the harness
    /// catches a truncated spill (pressure mode).
    SpillDropsSlice,
    /// The *runtime* perturbs one element of the first device-to-device
    /// copy it completes — the canary proving the differential peer
    /// harness really watches the peer route: the host-forced runs stay
    /// bit-clean and only the `exchange(auto)` run diverges (peer
    /// mode).
    PeerCorrupt,
    /// The *runtime* lets the losing copy of every straggler rescue
    /// commit its staged writes anyway, first element perturbed — the
    /// canary proving the harness catches a broken first-commit-wins
    /// gate (straggler mode).
    RescueDoubleCommit,
    /// The *runtime* downgrades every construct's `spread_integrity(…)`
    /// clause to `off` while the program's silent flips stay armed —
    /// the corruption reaches the host unnoticed, and the flip-blind
    /// oracle comparison must catch the bit divergence. The canary
    /// proving the harness would flag a checksum layer that silently
    /// stopped checking (integrity mode).
    IntegrityCorrupt,
    /// The *runtime* commits one staged sub-slice of every pipelined
    /// piece to host memory *before* the whole-piece commit point,
    /// first element perturbed — the canary proving the harness catches
    /// a pipeline whose staged writes become externally visible early
    /// (overlap mode).
    OverlapLeak,
}

impl Fault {
    /// Every fault with its `--inject` name.
    const NAMES: [(Fault, &'static str); 8] = [
        (Fault::StencilDropsLeftHalo, "stencil"),
        (Fault::ReduceSkipsLast, "reduce"),
        (Fault::RecoveryDropsLostChunk, "recovery"),
        (Fault::SpillDropsSlice, "spill"),
        (Fault::PeerCorrupt, "peer"),
        (Fault::RescueDoubleCommit, "rescue"),
        (Fault::IntegrityCorrupt, "integrity"),
        (Fault::OverlapLeak, "overlap"),
    ];

    /// Parse a `--inject` argument.
    pub fn parse(s: &str) -> Option<Fault> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|&(f, _)| f)
    }

    /// The `--inject` argument naming this fault.
    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(f, _)| *f == self)
            .map(|&(_, n)| n)
            .expect("every fault is named")
    }
}

/// Which programs a check generates, and what it verifies beyond the
/// oracle's final state. The modes are mutually exclusive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// Plain programs: data regions, halos, reductions, `nowait`, raw
    /// and illegal directives.
    #[default]
    Plain,
    /// Programs with seeded fault plans (device loss at time zero,
    /// retry-absorbable transient bursts) — see [`ast::FaultSpec`].
    Faults,
    /// Memory-pressure programs (spread-only, blocking, static
    /// distributions) with seeded [`ast::PressureSpec`]s: tiny device
    /// capacities plus sustained OOM windows. The oracle then predicts
    /// the exact degradation-event sequence (admission shrinks, chunk
    /// splits, host spills) or the exact `Degraded` error, alongside
    /// bit-identical results.
    Pressure,
    /// `spread_schedule(auto)` programs: spread-only blocking
    /// constructs over placement-independent kernels with repeated
    /// construct keys, so the runtime's profile-guided adaptation
    /// actually kicks in across launches. The oracle predicts the final
    /// state from an equal-weight stand-in split (valid because the
    /// kernels are placement-independent), and every journaled
    /// [`spread_trace::ConstructProfile`] must be a valid
    /// `StaticWeighted` plan.
    Auto,
    /// Halo-exchange programs ([`ast::Stmt::Halo`]) checked
    /// differentially: host-forced runs (which must match the oracle
    /// with zero peer copies) against one `exchange(auto)` run that
    /// must match the same oracle bits while performing exactly the
    /// closed-form D2D route set ([`oracle::predict_peer_copies`]),
    /// with no diverted copy.
    Peer,
    /// Straggler programs ([`ast::StragglerSpec`]): blocking
    /// spread-only statements under `spread_straggler(steal|replicate)`
    /// with one device's compute slowed 10–16× from time zero. The
    /// oracle's prediction is the *fault-free* one — slowdowns stretch
    /// durations only, and rescues are first-commit-wins
    /// value-invisible — so results must stay bit-identical while every
    /// journaled [`spread_rt::RescueRecord`] is structurally sound
    /// (exactly one commit, healthy in-range target, never rescuing
    /// onto the straggler itself).
    Stragglers,
    /// Integrity programs ([`ast::IntegritySpec`]): blocking
    /// spread-only statements under `spread_integrity(heal)` with
    /// seeded silent-flip bursts armed from time zero (counts far below
    /// the mismatch breaker, so healing never escalates to quarantine).
    /// The oracle's prediction is the *flip-blind* fault-free one
    /// (`S-Flip`/`S-Heal`: detect→discard→redo rounds are
    /// value-invisible), so results must stay bit-identical while the
    /// journaled [`spread_rt::IntegrityEvent`]s match the closed-form
    /// expectation — exactly `count` healed commits per flipped device
    /// that drains at all.
    Integrity,
    /// Pipelined-overlap programs ([`ast::OverlapSpec`]): blocking
    /// spread-only statements under `spread_overlap(depth)` with
    /// `2 ≤ depth ≤ 4`. The pipeline is a pure latency optimization, so
    /// the oracle stays *overlap-blind*: results must match the
    /// un-pipelined prediction bit-for-bit while the journaled
    /// [`spread_rt::OverlapRecord`]s match the closed-form piece count
    /// (one per multi-iteration chunk of the static distribution) with
    /// `staged == committed` on every record and nothing leaked before
    /// the whole-piece commit point.
    Overlap,
}

impl Mode {
    /// Every mode but [`Mode::Plain`], with its command-line flag and
    /// the fuzzer header's description of it.
    pub const FLAGS: [(Mode, &'static str, &'static str); 7] = [
        (Mode::Faults, "--faults", "with fault plans"),
        (
            Mode::Pressure,
            "--pressure",
            "with memory-pressure scenarios",
        ),
        (Mode::Auto, "--auto", "with adaptive (auto) schedules"),
        (Mode::Peer, "--peer", "with differential peer exchanges"),
        (Mode::Stragglers, "--stragglers", "with straggler rescues"),
        (
            Mode::Integrity,
            "--integrity",
            "with silent-corruption healing",
        ),
        (
            Mode::Overlap,
            "--overlap",
            "with pipelined transfer/compute overlap",
        ),
    ];

    /// The mode a command-line flag selects.
    pub fn from_flag(flag: &str) -> Option<Mode> {
        Self::FLAGS
            .iter()
            .find(|(_, f, _)| *f == flag)
            .map(|&(m, _, _)| m)
    }

    /// This mode's flag and header description (`None` for
    /// [`Mode::Plain`]).
    pub fn flag(self) -> Option<(&'static str, &'static str)> {
        Self::FLAGS
            .iter()
            .find(|(m, _, _)| *m == self)
            .map(|&(_, f, d)| (f, d))
    }

    /// The one mode the flags given on a command line select: plain
    /// when none, an error when two different ones.
    pub fn exclusive(given: &[Mode]) -> Result<Mode, String> {
        match given {
            [] => Ok(Mode::Plain),
            [m, rest @ ..] if rest.iter().all(|r| r == m) => Ok(*m),
            _ => {
                let flags: Vec<&str> = Self::FLAGS.iter().map(|&(_, f, _)| f).collect();
                let (last, init) = flags.split_last().expect("FLAGS is not empty");
                Err(format!(
                    "{} and {last} are mutually exclusive",
                    init.join(", ")
                ))
            }
        }
    }
}

/// How to check a program.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Number of interleavings per program: FIFO plus
    /// `interleavings − 1` seeded tie-break permutations.
    pub interleavings: usize,
    /// Optional oracle perturbation.
    pub fault: Option<Fault>,
    /// Which programs to generate and what to verify.
    pub mode: Mode,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            interleavings: 4,
            fault: None,
            mode: Mode::Plain,
        }
    }
}

/// A conformance violation: which interleaving disagreed, and how.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// The tie-break policy that exposed it.
    pub tie: TieBreak,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] {}", self.tie, self.detail)
    }
}

/// The tie-break policies checked for a program seed: FIFO first, then
/// seeded permutations derived from the seed (so the whole run is
/// reproducible from the program seed alone).
pub fn tie_breaks(seed: u64, interleavings: usize) -> Vec<TieBreak> {
    let mut v = vec![TieBreak::Fifo];
    for k in 1..interleavings.max(1) as u64 {
        v.push(TieBreak::Seeded(spread_prng::mix(seed, k)));
    }
    v
}

/// `InvalidDirective` carries a free-form message the oracle does not
/// reproduce, and `DeviceLost`'s `what` names whichever task happened
/// to surface the loss first (interleaving-dependent) — both compare
/// structurally. `OverlapExtension` likewise: when several pieces of
/// one construct each trip the §V-B rule (bounded model checking
/// reaches this by sequencing a raw enter *before* a multi-piece
/// spread), the named window is whichever faulting piece won the race,
/// so it compares by device. Every other error must match exactly.
fn errors_match(want: &RtError, got: &RtError) -> bool {
    match (want, got) {
        (RtError::InvalidDirective(_), RtError::InvalidDirective(_)) => true,
        (RtError::DeviceLost { device: w, .. }, RtError::DeviceLost { device: g, .. }) => w == g,
        (
            RtError::OverlapExtension { device: w, .. },
            RtError::OverlapExtension { device: g, .. },
        ) => w == g,
        // The section names whichever tainted drain surfaced first
        // (interleaving-dependent); the offending device is pinned.
        (
            RtError::IntegrityViolation { device: w, .. },
            RtError::IntegrityViolation { device: g, .. },
        ) => w == g,
        _ => want == got,
    }
}

fn compare(want: &oracle::Expectation, got: &run::Observed) -> Option<String> {
    match (&want.error, &got.error) {
        (Some(w), Some(g)) => {
            if !errors_match(w, g) {
                return Some(format!("predicted error `{w}`, runtime raised `{g}`"));
            }
            // Poisoned program: intermediate state is unspecified.
            return None;
        }
        (Some(w), None) => return Some(format!("predicted error `{w}`, runtime succeeded")),
        (None, Some(g)) => return Some(format!("runtime raised unpredicted error `{g}`")),
        (None, None) => {}
    }
    if got.races != 0 {
        return Some(format!(
            "{} race report(s) on a race-free program",
            got.races
        ));
    }
    let got_degradations: Vec<DegradationEvent> = got
        .journal
        .iter()
        .filter_map(DegradationEvent::of)
        .cloned()
        .collect();
    if want.degradations != got_degradations {
        return Some(format!(
            "degradation events: oracle predicted {:?}, runtime recorded {:?}",
            want.degradations, got_degradations
        ));
    }
    for (k, (w, g)) in want.arrays.iter().zip(&got.arrays).enumerate() {
        if let Some(i) = (0..w.len()).find(|&i| w[i].to_bits() != g[i].to_bits()) {
            return Some(format!(
                "array A{k}[{i}]: oracle {} vs runtime {}",
                w[i], g[i]
            ));
        }
    }
    if want.reduces.len() != got.reduces.len() {
        return Some(format!(
            "oracle predicted {} reduction(s), runtime produced {}",
            want.reduces.len(),
            got.reduces.len()
        ));
    }
    for (i, (w, g)) in want.reduces.iter().zip(&got.reduces).enumerate() {
        if w.to_bits() != g.to_bits() {
            return Some(format!("reduction #{i}: oracle {w} vs runtime {g}"));
        }
    }
    if want.mappings != got.mappings {
        return Some(format!(
            "mapping tables at quiescence: oracle {:?} vs runtime {:?}",
            want.mappings, got.mappings
        ));
    }
    // spread_schedule(auto) programs: whatever split the runtime
    // realized must have been a *valid* StaticWeighted plan. (Empty for
    // every other program kind, so the checks are vacuous there.)
    for prof in got.journal.iter().filter_map(ConstructProfile::of) {
        if prof.weights.len() != prof.devices.len() {
            return Some(format!(
                "profile `{}` launch {}: {} weight(s) for {} device(s)",
                prof.key,
                prof.launch,
                prof.weights.len(),
                prof.devices.len()
            ));
        }
        if prof.weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Some(format!(
                "profile `{}` launch {}: realized weights {:?} are not a \
                 valid StaticWeighted plan",
                prof.key, prof.launch, prof.weights
            ));
        }
        if prof.round == 0 {
            return Some(format!(
                "profile `{}` launch {}: realized round is zero",
                prof.key, prof.launch
            ));
        }
    }
    None
}

/// Every journal event must be allowed by the program's mode: rescues
/// need a straggler spec, integrity events an integrity spec, pipelined
/// pieces an overlap spec, and the per-interleaving runs force every
/// halo exchange through the host, so they perform no peer copy at all.
/// Degradations and profiles are allowed anywhere — [`compare`] pins
/// them against the oracle.
fn check_journal(p: &Program, journal: &[Event]) -> Option<String> {
    type Rule = (bool, fn(&Event) -> bool, fn(usize) -> String);
    let rules: [Rule; 4] = [
        (
            p.straggler.is_some(),
            |e| matches!(e, Event::Rescue(_)),
            |n| format!("{n} rescue(s) recorded without a straggler spec"),
        ),
        (
            p.integrity.is_some(),
            |e| matches!(e, Event::Integrity(_)),
            |n| format!("{n} integrity event(s) recorded without an integrity spec"),
        ),
        (
            p.overlap.is_some(),
            |e| matches!(e, Event::Overlap(_)),
            |n| format!("{n} overlap record(s) without an overlap spec"),
        ),
        (
            false,
            |e| matches!(e, Event::PeerCopy(_)),
            |n| format!("exchange(host) run performed {n} peer copies"),
        ),
    ];
    rules.iter().find_map(|&(allowed, is, detail)| {
        let n = journal.iter().filter(|e| is(e)).count();
        (!allowed && n > 0).then(|| detail(n))
    })
}

/// Structural soundness of the rescues a run performed: the bits are
/// already pinned by [`compare`], so this checks the first-commit-wins
/// bookkeeping — exactly one commit per rescued piece, a recorded
/// winner, and an in-range rescue target distinct from the straggler.
/// Which pieces straggle is *not* pinned: a healthy device whose chunk
/// is several times longer than the first finisher's legitimately blows
/// the relative deadline too, and such speculative duplicates must be
/// just as value-invisible as rescues of genuinely slowed devices.
fn validate_rescues(p: &Program, got: &run::Observed) -> Option<String> {
    for r in got.journal.iter().filter_map(RescueRecord::of) {
        if r.commits != 1 {
            return Some(format!(
                "rescued piece [{}..{}): {} commits (first-commit-wins demands exactly one)",
                r.start,
                r.start + r.len,
                r.commits
            ));
        }
        if r.winner.is_none() {
            return Some(format!(
                "rescued piece [{}..{}): no winner recorded at quiescence",
                r.start,
                r.start + r.len
            ));
        }
        if r.to == r.from || (r.to as usize) >= p.n_devices {
            return Some(format!(
                "rescued piece [{}..{}): straggler {} rescued onto device {}",
                r.start,
                r.start + r.len,
                r.from,
                r.to
            ));
        }
    }
    None
}

/// The closed-form integrity-event expectation. Flip bursts arm at
/// time zero and a device's tokens are all burned by detect→discard→
/// redo rounds at its *first* committing drain, so a flipped device
/// that receives at least one chunk of any spread statement records
/// exactly `count` healed commits — and one that never drains records
/// none. Failed/quarantined actions never appear (burst counts stay
/// far below the mismatch breaker).
fn validate_integrity(p: &Program, got: &run::Observed) -> Option<String> {
    let Some(is) = &p.integrity else {
        return None;
    };
    let events = || got.journal.iter().filter_map(IntegrityEvent::of);
    if let Some(e) = events().find(|e| {
        e.action != spread_rt::IntegrityAction::Healed
            || e.boundary != spread_rt::IntegrityBoundary::Commit
    }) {
        return Some(format!(
            "unexpected integrity event {:?}/{:?} on device {} (healed commits only)",
            e.action, e.boundary, e.device
        ));
    }
    // Devices that perform at least one committing drain: every
    // generated spread kernel commits (tofrom/from maps), so any
    // device the static distribution hands a non-empty chunk drains.
    let mut drains = std::collections::BTreeSet::new();
    for stmt in p.phases.iter().flatten() {
        if let ast::Stmt::Spread {
            devices, sched, op, ..
        } = stmt
        {
            for c in spread_core::schedule::distribute(
                op.range(p.n),
                devices,
                &sched.oracle_schedule(p.n, devices.len()),
            ) {
                if c.len > 0 {
                    if let Some(d) = c.device {
                        drains.insert(d);
                    }
                }
            }
        }
    }
    let mut want: Vec<u32> = is
        .flips
        .iter()
        .filter(|(d, _)| drains.contains(d))
        .flat_map(|&(d, count)| std::iter::repeat_n(d, count as usize))
        .collect();
    want.sort_unstable();
    let mut got_devs: Vec<u32> = events().map(|e| e.device).collect();
    got_devs.sort_unstable();
    if want != got_devs {
        return Some(format!(
            "healed commits per device: flips {:?} predict {want:?}, runtime recorded {got_devs:?}",
            is.flips
        ));
    }
    None
}

/// Structural soundness of the pipelined pieces a run recorded: the
/// bits are already pinned by [`compare`] (the oracle is
/// overlap-blind), so this checks the pipeline's ledger — nothing
/// leaked before the whole-piece commit point, every staged sub-slice
/// of a non-bypassed piece committed exactly once at the boundary, the
/// per-piece stage count equals `min(depth, len)`, and the record count
/// equals the closed-form piece count of the program's static
/// distributions (pieces of a single iteration take the classic path
/// and record nothing).
fn validate_overlap(p: &Program, got: &run::Observed) -> Option<String> {
    let Some(os) = &p.overlap else {
        return None;
    };
    let pieces = || got.journal.iter().filter_map(OverlapRecord::of);
    for r in pieces() {
        if r.leaked {
            return Some(format!(
                "device {}: a staged sub-slice of piece [{}..{}) was committed before \
                 the whole-piece boundary",
                r.device,
                r.start,
                r.start + r.len
            ));
        }
        if !r.bypassed {
            if r.staged != r.committed {
                return Some(format!(
                    "device {} piece [{}..{}): {} staged sub-slice(s) but {} commit(s)",
                    r.device,
                    r.start,
                    r.start + r.len,
                    r.staged,
                    r.committed
                ));
            }
            let want_depth = os.depth.min(r.len as u32);
            if r.depth != want_depth {
                return Some(format!(
                    "device {} piece [{}..{}): {} pipeline stage(s), expected {}",
                    r.device,
                    r.start,
                    r.start + r.len,
                    r.depth,
                    want_depth
                ));
            }
        }
    }
    // Closed form: the runtime pipelines exactly the multi-iteration
    // pieces of each spread statement's static distribution (depth ≥ 2
    // always holds for generated specs).
    let mut want = 0usize;
    for stmt in p.phases.iter().flatten() {
        if let ast::Stmt::Spread {
            devices, sched, op, ..
        } = stmt
        {
            want += spread_core::schedule::distribute(op.range(p.n), devices, &sched.to_schedule())
                .iter()
                .filter(|c| c.len >= 2 && c.device.is_some())
                .count();
        }
    }
    let recorded = pieces().count();
    if recorded != want {
        return Some(format!(
            "overlap ledger: the static distributions predict {want} pipelined piece(s), \
             runtime recorded {recorded}"
        ));
    }
    None
}

/// Check one program under every tie-break policy for `seed`.
///
/// Under [`Mode::Peer`] the check is differential: the per-tie
/// runs force every halo exchange through the host (zero peer copies
/// allowed), then one extra FIFO `exchange(auto)` run must reproduce
/// the same oracle bits while performing exactly the predicted
/// device-to-device route set, with nothing diverted.
pub fn check_program(p: &Program, seed: u64, cfg: &CheckConfig) -> Result<(), CheckFailure> {
    let want = oracle::predict(p, cfg.fault);
    for tie in tie_breaks(seed, cfg.interleavings) {
        let got = run::execute(p, tie, cfg.fault);
        let detail = compare(&want, &got)
            .or_else(|| check_journal(p, &got.journal))
            .or_else(|| {
                // After a predicted error the records are unspecified.
                if want.error.is_some() {
                    return None;
                }
                validate_rescues(p, &got)
                    .or_else(|| validate_integrity(p, &got))
                    .or_else(|| validate_overlap(p, &got))
            });
        if let Some(detail) = detail {
            return Err(CheckFailure { tie, detail });
        }
    }
    if cfg.mode == Mode::Peer {
        let tie = TieBreak::Fifo;
        let got = run::execute_ex(p, tie, cfg.fault, spread_core::ExchangeMode::Auto);
        if let Some(detail) = compare(&want, &got) {
            return Err(CheckFailure {
                tie,
                detail: format!("exchange(auto): {detail}"),
            });
        }
        // The route set is only pinned down for a legal program — after
        // a predicted error, what ran before the poison is unspecified.
        if want.error.is_none() {
            let copies = || got.journal.iter().filter_map(PeerCopyRecord::of);
            if let Some(r) = copies().find(|r| r.diverted) {
                let sec = r.section;
                return Err(CheckFailure {
                    tie,
                    detail: format!(
                        "exchange(auto): peer copy {}→{} of A{}[{}..{}] diverted to the \
                         host on a fault-free program",
                        r.src,
                        r.dst,
                        sec.array.0,
                        sec.start,
                        sec.start + sec.len
                    ),
                });
            }
            let mut routed: Vec<(u32, u32, u32, usize, usize)> = copies()
                .map(|r| {
                    (
                        r.src,
                        r.dst,
                        r.section.array.0,
                        r.section.start,
                        r.section.len,
                    )
                })
                .collect();
            routed.sort_unstable();
            let predicted = oracle::predict_peer_copies(p);
            if routed != predicted {
                return Err(CheckFailure {
                    tie,
                    detail: format!(
                        "exchange(auto) route set: predicted {predicted:?}, runtime \
                         performed {routed:?}"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The program `cfg.mode` generates for `seed`.
pub fn gen_for(seed: u64, cfg: &CheckConfig) -> Program {
    match cfg.mode {
        Mode::Plain => gen::gen_program_cfg(seed, false),
        Mode::Faults => gen::gen_program_cfg(seed, true),
        Mode::Pressure => gen::gen_program_pressure(seed),
        Mode::Auto => gen::gen_program_auto(seed),
        Mode::Peer => gen::gen_program_peer(seed),
        Mode::Stragglers => gen::gen_program_straggler(seed),
        Mode::Integrity => gen::gen_program_integrity(seed),
        Mode::Overlap => gen::gen_program_overlap(seed),
    }
}

/// Generate and check the program for `seed` under `cfg.mode`.
pub fn check_seed(seed: u64, cfg: &CheckConfig) -> Result<(), CheckFailure> {
    check_program(&gen_for(seed, cfg), seed, cfg)
}

/// One failing seed of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The program seed.
    pub seed: u64,
    /// What went wrong.
    pub failure: CheckFailure,
}

/// Summary of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Programs checked.
    pub programs: usize,
    /// Total runtime executions (programs × interleavings).
    pub executions: usize,
    /// Failing seeds (empty on a healthy runtime).
    pub failures: Vec<FuzzFailure>,
}

/// Check `programs` seeds derived from `seed0` (`mix(seed0, i)`), each
/// under `cfg.interleavings` interleavings. `progress` is called after
/// every program with `(done, failures_so_far)`.
pub fn fuzz(
    seed0: u64,
    programs: usize,
    cfg: &CheckConfig,
    mut progress: impl FnMut(usize, usize),
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..programs {
        let seed = spread_prng::mix(seed0, i as u64);
        if let Err(failure) = check_seed(seed, cfg) {
            report.failures.push(FuzzFailure { seed, failure });
        }
        report.programs += 1;
        report.executions += cfg.interleavings.max(1);
        progress(report.programs, report.failures.len());
    }
    report
}

/// Re-check a failing seed and shrink its program to a minimal
/// counterexample (deterministically).
pub fn shrink_seed(seed: u64, cfg: &CheckConfig) -> Option<(Program, CheckFailure)> {
    let p = gen_for(seed, cfg);
    check_program(&p, seed, cfg).err()?;
    let mut fails = |q: &Program| check_program(q, seed, cfg).is_err();
    let minimal = shrink::shrink(&p, &mut fails);
    let failure = check_program(&minimal, seed, cfg).expect_err("shrink keeps the program failing");
    Some((minimal, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_breaks_are_reproducible_and_start_with_fifo() {
        let a = tie_breaks(7, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0], TieBreak::Fifo);
        assert_eq!(a, tie_breaks(7, 4));
        assert_ne!(tie_breaks(7, 4)[1], tie_breaks(8, 4)[1]);
    }

    #[test]
    fn a_legal_seed_checks_clean() {
        check_seed(0, &CheckConfig::default()).unwrap();
    }

    #[test]
    fn fault_parsing() {
        assert_eq!(Fault::parse("stencil"), Some(Fault::StencilDropsLeftHalo));
        assert_eq!(Fault::parse("reduce"), Some(Fault::ReduceSkipsLast));
        assert_eq!(
            Fault::parse("recovery"),
            Some(Fault::RecoveryDropsLostChunk)
        );
        assert_eq!(Fault::parse("spill"), Some(Fault::SpillDropsSlice));
        assert_eq!(Fault::parse("peer"), Some(Fault::PeerCorrupt));
        assert_eq!(Fault::parse("rescue"), Some(Fault::RescueDoubleCommit));
        assert_eq!(Fault::parse("integrity"), Some(Fault::IntegrityCorrupt));
        assert_eq!(Fault::parse("overlap"), Some(Fault::OverlapLeak));
        assert_eq!(Fault::parse("nope"), None);
        for (fault, name) in Fault::NAMES {
            assert_eq!(fault.name(), name);
        }
    }

    #[test]
    fn mode_flags_parse_and_exclude() {
        for (mode, flag, _) in Mode::FLAGS {
            assert_eq!(Mode::from_flag(flag), Some(mode));
            assert_eq!(mode.flag().map(|(f, _)| f), Some(flag));
        }
        assert_eq!(Mode::Plain.flag(), None);
        assert_eq!(Mode::exclusive(&[]), Ok(Mode::Plain));
        assert_eq!(Mode::exclusive(&[Mode::Peer, Mode::Peer]), Ok(Mode::Peer));
        assert_eq!(
            Mode::exclusive(&[Mode::Faults, Mode::Peer]),
            Err(
                "--faults, --pressure, --auto, --peer, --stragglers, --integrity and --overlap \
                 are mutually exclusive"
                    .to_string()
            )
        );
    }

    #[test]
    fn a_faulted_seed_checks_clean() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Faults,
            ..CheckConfig::default()
        };
        check_seed(0, &cfg).unwrap();
    }

    #[test]
    fn pressure_seeds_check_clean() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Pressure,
            ..CheckConfig::default()
        };
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("pressure seed {seed}: {f}");
            }
        }
    }

    #[test]
    fn auto_seeds_check_clean() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Auto,
            ..CheckConfig::default()
        };
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("auto seed {seed}: {f}");
            }
        }
    }

    #[test]
    fn straggler_seeds_check_clean_and_some_rescue() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Stragglers,
            ..CheckConfig::default()
        };
        let mut rescued = 0;
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("straggler seed {seed}: {f}");
            }
            let got = run::execute(&gen_for(seed, &cfg), TieBreak::Fifo, None);
            rescued += got.journal.iter().filter_map(RescueRecord::of).count();
        }
        assert!(rescued > 0, "no straggler seed in 0..8 ever rescued");
    }

    #[test]
    fn integrity_seeds_check_clean_and_some_heal() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Integrity,
            ..CheckConfig::default()
        };
        let mut healed = 0;
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("integrity seed {seed}: {f}");
            }
            let got = run::execute(&gen_for(seed, &cfg), TieBreak::Fifo, None);
            healed += got.journal.iter().filter_map(IntegrityEvent::of).count();
        }
        assert!(healed > 0, "no integrity seed in 0..8 ever healed");
    }

    #[test]
    fn overlap_seeds_check_clean_and_some_pipeline() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Overlap,
            ..CheckConfig::default()
        };
        let mut piped = 0;
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("overlap seed {seed}: {f}");
            }
            let got = run::execute(&gen_for(seed, &cfg), TieBreak::Fifo, None);
            piped += got.journal.iter().filter_map(OverlapRecord::of).count();
        }
        assert!(piped > 0, "no overlap seed in 0..8 ever pipelined");
    }

    #[test]
    fn peer_seeds_check_clean() {
        let cfg = CheckConfig {
            interleavings: 2,
            mode: Mode::Peer,
            ..CheckConfig::default()
        };
        for seed in 0..8u64 {
            if let Err(f) = check_seed(seed, &cfg) {
                panic!("peer seed {seed}: {f}");
            }
        }
    }

    #[test]
    fn oracle_canaries_are_caught_and_shrink() {
        // The three oracle-side canaries, re-run against the
        // semantics-backed oracle: each perturbs one rule of the
        // `spread-semantics` machine (stencil halo, host fold,
        // redistribute recovery), and some seed in a bounded scan must
        // expose the divergence and keep failing through shrinking.
        // (The runtime-side canaries — spill and peer — have their own
        // mode-specific tests below.)
        for (fault, mode, seeds) in [
            (Fault::StencilDropsLeftHalo, Mode::Plain, 0..40u64),
            (Fault::ReduceSkipsLast, Mode::Plain, 0..40u64),
            (Fault::RecoveryDropsLostChunk, Mode::Faults, 0..80u64),
        ] {
            let cfg = CheckConfig {
                interleavings: 1,
                fault: Some(fault),
                mode,
            };
            let seed = seeds
                .clone()
                .find(|&s| check_seed(s, &cfg).is_err())
                .unwrap_or_else(|| panic!("{fault:?}: no seed in {seeds:?} trips the canary"));
            let (minimal, failure) =
                shrink_seed(seed, &cfg).unwrap_or_else(|| panic!("{fault:?}: failure must shrink"));
            assert!(
                !minimal.phases.is_empty(),
                "{fault:?}: shrank to an empty program"
            );
            assert!(
                check_program(&minimal, seed, &cfg).is_err(),
                "{fault:?}: minimal program stopped failing: {failure}"
            );
        }
    }

    #[test]
    fn peer_canary_is_caught_and_shrinks() {
        let cfg = CheckConfig {
            interleavings: 1,
            fault: Some(Fault::PeerCorrupt),
            mode: Mode::Peer,
        };
        // Find a seed whose `exchange(auto)` run actually routes a halo
        // device-to-device (a `bump`-free Halo with interior chunks),
        // so the corrupted byte reaches the final host state. The
        // host-forced runs must stay clean — the canary is inert there
        // — which is exactly what proves the differential leg watches
        // the peer route.
        let seed = (0..50u64)
            .find(|&s| check_seed(s, &cfg).is_err())
            .expect("some peer seed must route D2D and catch the corruption");
        let (minimal, failure) = shrink_seed(seed, &cfg).expect("canary failure shrinks");
        assert!(failure.detail.contains("array"), "{failure}");
        assert!(
            minimal
                .phases
                .iter()
                .flatten()
                .any(|s| matches!(s, ast::Stmt::Halo { .. })),
            "the halo exchange is load-bearing for the divergence"
        );
    }

    #[test]
    fn rescue_canary_is_caught_and_shrinks() {
        let cfg = CheckConfig {
            interleavings: 1,
            fault: Some(Fault::RescueDoubleCommit),
            mode: Mode::Stragglers,
        };
        // Find a seed whose run actually rescues a piece: the forced
        // duplicate commit perturbs the losing copy's first staged
        // element, and the harness must flag the divergence from
        // first-commit-wins and keep it failing through shrinking.
        let seed = (0..50u64)
            .find(|&s| check_seed(s, &cfg).is_err())
            .expect("some straggler seed must rescue and catch the double commit");
        let (minimal, failure) = shrink_seed(seed, &cfg).expect("canary failure shrinks");
        // Replicate programs surface as bit divergence (the loser
        // drains last, perturbed); steal programs surface as a
        // commit-count violation (the perturbed drain lands first and
        // the winner overwrites it, but the gate counted two commits).
        assert!(
            failure.detail.contains("array") || failure.detail.contains("commit"),
            "{failure}"
        );
        assert!(
            minimal.straggler.is_some(),
            "the straggler spec is load-bearing for the divergence"
        );
        assert!(!minimal.phases.is_empty());
    }

    #[test]
    fn integrity_canary_is_caught_and_shrinks() {
        let cfg = CheckConfig {
            interleavings: 1,
            fault: Some(Fault::IntegrityCorrupt),
            mode: Mode::Integrity,
        };
        // With the checks silently disabled, the armed flips either rot
        // the final host state (bit divergence from the flip-blind
        // oracle) or — when a later statement overwrites the rotten
        // element — leave the predicted healed-commit ledger empty.
        // Some seed in a bounded scan must be caught either way and
        // keep failing through shrinking.
        let seed = (0..50u64)
            .find(|&s| check_seed(s, &cfg).is_err())
            .expect("some integrity seed must surface the disabled checks");
        let (minimal, failure) = shrink_seed(seed, &cfg).expect("canary failure shrinks");
        assert!(
            failure.detail.contains("array") || failure.detail.contains("healed"),
            "{failure}"
        );
        assert!(
            minimal.integrity.is_some(),
            "the integrity spec is load-bearing for the divergence"
        );
        assert!(!minimal.phases.is_empty());
    }

    #[test]
    fn overlap_canary_is_caught_and_shrinks() {
        let cfg = CheckConfig {
            interleavings: 1,
            fault: Some(Fault::OverlapLeak),
            mode: Mode::Overlap,
        };
        // The leaked sub-slice is value-visible (first element
        // perturbed before the early commit), so the harness flags it
        // as a bit divergence — or, when a later statement overwrites
        // the rotten element, as a `leaked` record in the ledger.
        let seed = (0..50u64)
            .find(|&s| check_seed(s, &cfg).is_err())
            .expect("some overlap seed must leak and be caught");
        let (minimal, failure) = shrink_seed(seed, &cfg).expect("canary failure shrinks");
        assert!(
            failure.detail.contains("array") || failure.detail.contains("boundary"),
            "{failure}"
        );
        assert!(
            minimal.overlap.is_some(),
            "the overlap spec is load-bearing for the divergence"
        );
        assert!(!minimal.phases.is_empty());
    }

    #[test]
    fn spill_canary_is_caught_and_shrinks() {
        let cfg = CheckConfig {
            interleavings: 1,
            fault: Some(Fault::SpillDropsSlice),
            mode: Mode::Pressure,
        };
        // Find a seed whose program actually spills (Spill policy with a
        // visibly-perturbed kernel), then require the harness to flag it
        // and keep it failing through shrinking.
        let spilled = (0..200u64).find(|&seed| check_seed(seed, &cfg).is_err());
        let seed = spilled.expect("some pressure seed must spill and diverge");
        let (minimal, failure) = shrink_seed(seed, &cfg).expect("canary failure shrinks");
        assert!(failure.detail.contains("array"), "{failure}");
        assert!(
            minimal.pressure.is_some(),
            "the pressure spec is load-bearing for the spill divergence"
        );
        assert!(!minimal.phases.is_empty());
    }
}
