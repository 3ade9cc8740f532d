//! The differential oracles: every fast path of the pipeline checked
//! against its retained reference on one generated program.
//!
//! Each oracle runs under [`std::panic::catch_unwind`], so a crash in any
//! engine is contained and reported as a [`Verdict::Panic`] rather than
//! killing the campaign. The oracles are:
//!
//! * **exec** — the compiled execution engine versus the tree-walking
//!   reference interpreter (`machine::interp::reference`): bit-identical
//!   array state and statement counts, or the *same error kind* when the
//!   program faults.
//! * **trace** — the compiled access stream versus the symbolic walker
//!   [`machine::trace::walk_accesses_symbolic`]: identical entry sequences.
//! * **cache** — the run-compressed simulation versus the per-access
//!   pipeline and the naive LRU reference: bit-identical counters on the
//!   tiny test machine whose four sets force conflicts.
//! * **analytic** — the closed-form cache tier ([`machine::estimate_cache`])
//!   versus the exact simulator: the estimated miss counts must stay within
//!   the estimate's *own reported* error bound on both levels, and access
//!   counts must match exactly.
//! * **normalize** — the normalization pipeline: the normalized program
//!   validates, normalization is idempotent, the normalized program still
//!   agrees with *its* references (exec + trace), and its results match
//!   the original program to fp-reordering tolerance.
//! * **schedule** — the daisy scheduler driven headlessly: outcomes are
//!   bit-identical across scheduler parallelism levels and across a
//!   cold-vs-warm (persist + warm-start) round trip, and the scheduled
//!   program still validates and executes differentially.

use std::panic::{catch_unwind, AssertUnwindSafe};

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::prelude::*;
use machine::interp::{reference, ProgramData};
use machine::{
    simulate_cache, simulate_cache_per_access, simulate_cache_reference, Interpreter,
    MachineConfig, TraceEntry,
};
use normalize::Normalizer;

/// Names of all oracles, in the order [`check_all`] runs them.
pub const ORACLES: [&str; 6] = [
    "exec",
    "trace",
    "cache",
    "analytic",
    "normalize",
    "schedule",
];

/// Outcome of running one oracle (or a whole oracle battery) on a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every cross-check agreed.
    Pass,
    /// A fast path disagreed with its reference.
    Mismatch {
        /// Which oracle observed the disagreement.
        oracle: &'static str,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// An engine panicked; the panic was contained.
    Panic {
        /// Which oracle was running when the panic escaped.
        oracle: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// The oracle that failed, or `None` for a pass.
    pub fn oracle(&self) -> Option<&'static str> {
        match self {
            Verdict::Pass => None,
            Verdict::Mismatch { oracle, .. } | Verdict::Panic { oracle, .. } => Some(oracle),
        }
    }

    /// Coarse failure class used by the shrinker to preserve the failure
    /// while reducing: `(oracle, is_panic)`.
    pub fn failure_key(&self) -> Option<(&'static str, bool)> {
        match self {
            Verdict::Pass => None,
            Verdict::Mismatch { oracle, .. } => Some((oracle, false)),
            Verdict::Panic { oracle, .. } => Some((oracle, true)),
        }
    }
}

/// Which oracles a campaign runs. The schedule oracle costs two scheduler
/// constructions and a store round trip per case, so campaigns subsample it.
#[derive(Debug, Clone)]
pub struct OracleSelection {
    /// Run the exec differential.
    pub exec: bool,
    /// Run the trace differential.
    pub trace: bool,
    /// Run the three-way cache differential.
    pub cache: bool,
    /// Run the analytic-bracket oracle (estimates within their own error
    /// bound of the exact counters).
    pub analytic: bool,
    /// Run the normalization oracle.
    pub normalize: bool,
    /// Run the schedule oracle on every `schedule_every`-th case (0 = never).
    pub schedule_every: u64,
}

impl Default for OracleSelection {
    fn default() -> Self {
        OracleSelection {
            exec: true,
            trace: true,
            cache: true,
            analytic: true,
            normalize: true,
            schedule_every: 16,
        }
    }
}

/// An oracle: `Ok(())` on agreement, `Err(detail)` on divergence.
type OracleFn = fn(&Program) -> std::result::Result<(), String>;

/// Runs every selected oracle on `program`, stopping at the first failure.
/// `case_index` drives the schedule-oracle subsampling.
pub fn check_all(program: &Program, oracles: &OracleSelection, case_index: u64) -> Verdict {
    let battery: [(&'static str, bool, OracleFn); 6] = [
        ("exec", oracles.exec, exec_oracle),
        ("trace", oracles.trace, trace_oracle),
        ("cache", oracles.cache, cache_oracle),
        ("analytic", oracles.analytic, analytic_oracle),
        ("normalize", oracles.normalize, normalize_oracle),
        (
            "schedule",
            oracles.schedule_every != 0 && case_index.is_multiple_of(oracles.schedule_every.max(1)),
            schedule_oracle,
        ),
    ];
    for (name, enabled, oracle) in battery {
        if !enabled {
            continue;
        }
        match contain(name, || oracle(program)) {
            Verdict::Pass => {}
            failure => return failure,
        }
    }
    Verdict::Pass
}

/// Runs a single oracle by name (as [`Verdict::oracle`] reports it) — the
/// shrinker re-runs exactly the failing oracle.
pub fn check_one(program: &Program, oracle: &str) -> Verdict {
    let f: OracleFn = match oracle {
        "exec" => exec_oracle,
        "trace" => trace_oracle,
        "cache" => cache_oracle,
        "analytic" => analytic_oracle,
        "normalize" => normalize_oracle,
        "schedule" => schedule_oracle,
        other => {
            return Verdict::Mismatch {
                oracle: "exec",
                detail: format!("unknown oracle {other:?}"),
            }
        }
    };
    let name = ORACLES
        .iter()
        .find(|n| **n == oracle)
        .copied()
        .unwrap_or("exec");
    contain(name, || f(program))
}

/// Runs `f` with panic containment, mapping the three outcomes onto a
/// [`Verdict`].
fn contain(oracle: &'static str, f: impl FnOnce() -> std::result::Result<(), String>) -> Verdict {
    // The span closes *after* catch_unwind resolves, so a contained panic
    // still exits the span cleanly (the guard tolerates unwinding anyway).
    let _span = telemetry::span(oracle);
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(())) => Verdict::Pass,
        Ok(Err(detail)) => Verdict::Mismatch { oracle, detail },
        Err(payload) => Verdict::Panic {
            oracle,
            message: panic_message(payload),
        },
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The oracles
// ---------------------------------------------------------------------------

fn exec_oracle(program: &Program) -> std::result::Result<(), String> {
    exec_differential(program, "")
}

/// The exec differential, reusable on derived programs (`label` prefixes
/// the failure detail so normalize/schedule failures say which program
/// variant diverged).
fn exec_differential(program: &Program, label: &str) -> std::result::Result<(), String> {
    let mut slow_data =
        ProgramData::seeded(program).map_err(|e| format!("{label}storage allocation: {e}"))?;
    let mut slow = reference::Interpreter::new();
    let slow_result = slow.run(program, &mut slow_data);

    let mut fast_data =
        ProgramData::seeded(program).map_err(|e| format!("{label}storage allocation: {e}"))?;
    let mut fast = Interpreter::new();
    let fast_result = fast.run(program, &mut fast_data);

    match (slow_result, fast_result) {
        (Ok(()), Ok(())) => {
            if slow.executed_statements != fast.executed_statements {
                return Err(format!(
                    "{label}statement counts diverge: reference {} vs compiled {}",
                    slow.executed_statements, fast.executed_statements
                ));
            }
            if slow_data != fast_data {
                return Err(format!(
                    "{label}array state diverges between reference and compiled execution ({})",
                    first_data_difference(program, &slow_data, &fast_data)
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) => {
            if std::mem::discriminant(&a) == std::mem::discriminant(&b) {
                Ok(())
            } else {
                Err(format!(
                    "{label}error kinds diverge: reference `{a}` vs compiled `{b}`"
                ))
            }
        }
        (Err(a), Ok(())) => Err(format!(
            "{label}reference faults (`{a}`) but the compiled engine succeeds"
        )),
        (Ok(()), Err(b)) => Err(format!(
            "{label}compiled engine faults (`{b}`) but the reference succeeds"
        )),
    }
}

fn first_data_difference(program: &Program, a: &ProgramData, b: &ProgramData) -> String {
    for name in program.arrays.keys() {
        if let Some(diff) = a.max_abs_diff(b, name.as_str()) {
            if diff != 0.0 {
                return format!("first differing array {name}, max |delta| = {diff:e}");
            }
        }
    }
    "arrays equal elementwise; metadata differs".to_string()
}

fn trace_oracle(program: &Program) -> std::result::Result<(), String> {
    let compiled =
        machine::exec::CompiledProgram::lower(program).map_err(|e| format!("lowering: {e}"))?;
    let mut fast = Vec::new();
    let mut sink = CollectSink(&mut fast);
    let fast_result = compiled.stream(&mut sink);
    let mut slow = Vec::new();
    let slow_result = machine::trace::walk_accesses_symbolic(program, |e| slow.push(e));
    match (fast_result, slow_result) {
        (Ok(fast_n), Ok(slow_n)) => {
            if fast_n != slow_n {
                return Err(format!(
                    "access counts diverge: compiled stream {fast_n} vs symbolic walk {slow_n}"
                ));
            }
            if fast != slow {
                let at = fast
                    .iter()
                    .zip(&slow)
                    .position(|(a, b)| a != b)
                    .unwrap_or(fast.len().min(slow.len()));
                return Err(format!(
                    "access streams diverge at entry {at}: compiled {:?} vs symbolic {:?}",
                    fast.get(at),
                    slow.get(at)
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(&a) == std::mem::discriminant(&b) => Ok(()),
        (a, b) => Err(format!(
            "stream outcomes diverge: compiled {:?} vs symbolic {:?}",
            a.err().map(|e| e.to_string()),
            b.err().map(|e| e.to_string())
        )),
    }
}

struct CollectSink<'a>(&'a mut Vec<TraceEntry>);

impl machine::AccessSink for CollectSink<'_> {
    fn access(&mut self, entry: TraceEntry) {
        self.0.push(entry);
    }
}

fn cache_oracle(program: &Program) -> std::result::Result<(), String> {
    let machine = MachineConfig::tiny_for_tests();
    let fast = simulate_cache(program, &machine);
    let base = simulate_cache_per_access(program, &machine);
    let naive = simulate_cache_reference(program, &machine);
    let (fast, base, naive) = match (fast, base, naive) {
        (Ok(f), Ok(b), Ok(n)) => (f, b, n),
        (Err(f), Err(b), Err(n)) => {
            let (df, db, dn) = (
                std::mem::discriminant(&f),
                std::mem::discriminant(&b),
                std::mem::discriminant(&n),
            );
            if df == db && db == dn {
                return Ok(());
            }
            return Err(format!(
                "simulation error kinds diverge: run-compressed `{f}`, per-access `{b}`, reference `{n}`"
            ));
        }
        (f, b, n) => {
            return Err(format!(
                "simulation outcomes diverge: run-compressed {:?}, per-access {:?}, reference {:?}",
                f.err().map(|e| e.to_string()),
                b.err().map(|e| e.to_string()),
                n.err().map(|e| e.to_string()),
            ))
        }
    };
    for (label, accesses, l1, l2) in [
        ("per-access", base.accesses(), base.l1(), base.l2()),
        ("reference", naive.accesses(), naive.l1(), naive.l2()),
    ] {
        if fast.accesses() != accesses {
            return Err(format!(
                "access counts diverge from {label}: {} vs {accesses}",
                fast.accesses()
            ));
        }
        if fast.l1() != l1 {
            return Err(format!(
                "L1 counters diverge from {label}: {:?} vs {l1:?}",
                fast.l1()
            ));
        }
        if fast.l2() != l2 {
            return Err(format!(
                "L2 counters diverge from {label}: {:?} vs {l2:?}",
                fast.l2()
            ));
        }
    }
    Ok(())
}

fn analytic_oracle(program: &Program) -> std::result::Result<(), String> {
    let machine = MachineConfig::tiny_for_tests();
    let exact = simulate_cache(program, &machine);
    let estimate = machine::estimate_cache(program, &machine);
    let (exact, estimate) = match (exact, estimate) {
        (Ok(e), Ok(a)) => (e, a),
        (Err(e), Err(a)) => {
            if std::mem::discriminant(&e) == std::mem::discriminant(&a) {
                return Ok(());
            }
            return Err(format!(
                "outcome kinds diverge: exact `{e}` vs analytic `{a}`"
            ));
        }
        (e, a) => {
            return Err(format!(
                "outcomes diverge: exact {:?} vs analytic {:?}",
                e.err().map(|e| e.to_string()),
                a.err().map(|e| e.to_string()),
            ))
        }
    };
    if estimate.accesses != exact.accesses() {
        return Err(format!(
            "access counts diverge: analytic {} vs exact {}",
            estimate.accesses,
            exact.accesses()
        ));
    }
    if !estimate.brackets(&exact.l1(), &exact.l2()) {
        return Err(format!(
            "analytic miss estimate escapes its error bound {}: \
             L1 {} vs exact {}, L2 {} vs exact {}",
            estimate.error_bound,
            estimate.l1.misses,
            exact.l1().misses,
            estimate.l2.misses,
            exact.l2().misses
        ));
    }
    Ok(())
}

fn normalize_oracle(program: &Program) -> std::result::Result<(), String> {
    let normalized = Normalizer::new()
        .run(program)
        .map_err(|e| format!("normalization fails: {e}"))?;
    normalized
        .program
        .validate()
        .map_err(|e| format!("normalized program is invalid: {e}"))?;
    let twice = Normalizer::new()
        .run(&normalized.program)
        .map_err(|e| format!("re-normalization fails: {e}"))?;
    if twice.program != normalized.program {
        return Err("normalization is not idempotent".to_string());
    }
    // The normalized program must still agree with its own references.
    exec_differential(&normalized.program, "normalized program: ")?;
    // And preserve the original semantics to fp-reordering tolerance.
    semantics_match(program, &normalized.program, "normalization")
}

/// Runs both programs on seeded storage and compares every array of the
/// original to fp-reordering tolerance; faults must agree in kind.
fn semantics_match(
    original: &Program,
    derived: &Program,
    what: &str,
) -> std::result::Result<(), String> {
    let mut before = ProgramData::seeded(original).map_err(|e| e.to_string())?;
    let before_result = Interpreter::new().run(original, &mut before);
    let mut after = ProgramData::seeded(derived).map_err(|e| e.to_string())?;
    let after_result = Interpreter::new().run(derived, &mut after);
    match (before_result, after_result) {
        (Ok(()), Ok(())) => {
            for name in original.arrays.keys() {
                let Some(diff) = before.max_abs_diff(&after, name.as_str()) else {
                    return Err(format!("{what} dropped or reshaped array {name}"));
                };
                // `>=` plus the NaN check keeps the semantics of
                // `!(diff < 1e-9)`: a NaN difference is a failure.
                if diff >= 1e-9 || diff.is_nan() {
                    return Err(format!(
                        "{what} changes results: array {name} differs by {diff:e}"
                    ));
                }
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(&a) == std::mem::discriminant(&b) => Ok(()),
        (a, b) => Err(format!(
            "{what} changes the execution outcome: original {:?}, derived {:?}",
            a.err().map(|e| e.to_string()),
            b.err().map(|e| e.to_string())
        )),
    }
}

/// Headless scheduling config: tuning enabled against an in-memory database
/// seeded from the case itself, on the tiny machine so cost-model cache
/// simulations stay cheap.
fn daisy_config() -> DaisyConfig {
    DaisyConfig {
        normalize: true,
        transfer_tuning: false,
        idiom_detection: true,
        threads: 4,
        machine: MachineConfig::tiny_for_tests(),
        neighbors: 1,
        parallelism: 1,
        simulation_parallelism: 1,
    }
}

fn schedule_oracle(program: &Program) -> std::result::Result<(), String> {
    // Parallelism must never change the outcome (the documented contract of
    // DaisyConfig::parallelism).
    let sequential = DaisyScheduler::new(daisy_config());
    let cold = sequential.schedule(program);
    let mut parallel = DaisyScheduler::new(daisy_config());
    parallel.set_parallelism(4);
    let wide = parallel.schedule(program);
    if cold != wide {
        return Err("ScheduleOutcome diverges between scheduler parallelism 1 and 4".to_string());
    }
    cold.program
        .validate()
        .map_err(|e| format!("scheduled program is invalid: {e}"))?;
    // Scheduling must not change what the program computes.
    semantics_match(program, &cold.program, "scheduling")?;
    // Cold-vs-warm: persisting the (possibly empty) database and warm
    // starting a fresh scheduler from it must reproduce the outcome
    // bit-identically. The per-call sequence number keeps concurrent
    // oracles on the same program out of each other's store directory.
    static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "daisyfuzz-store-{}-{:016x}-{}",
        std::process::id(),
        program.structural_hash(),
        STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
    let path = dir.join("case.tunedb");
    let result = (|| {
        sequential
            .persist(&path)
            .map_err(|e| format!("persist: {e}"))?;
        let mut warmed = DaisyScheduler::new(daisy_config());
        warmed
            .warm_start(&path)
            .map_err(|e| format!("warm start: {e}"))?;
        let warm = warmed.schedule(program);
        if warm != cold {
            return Err(
                "ScheduleOutcome diverges between cold and warm-started schedulers".to_string(),
            );
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn generated_programs_pass_every_oracle() {
        let config = GenConfig::default();
        let oracles = OracleSelection {
            schedule_every: 8,
            ..OracleSelection::default()
        };
        for seed in 0..40 {
            let p = generate(seed, &config);
            let verdict = check_all(&p, &oracles, seed);
            assert!(
                verdict.is_pass(),
                "seed {seed} fails: {verdict:?}\n{}",
                loop_ir::printer::print_program(&p)
            );
        }
    }

    #[test]
    fn a_broken_program_is_reported_not_propagated() {
        // An out-of-bounds program: both engines fault with the same error
        // kind, which counts as agreement — and never as an escape.
        let p = loop_ir::parser::parse_program(
            "program oob { param N = 4; array A[N]; for i in 0..N { A[i + 3] = 1.0; } }",
        )
        .unwrap();
        assert!(check_all(&p, &OracleSelection::default(), 0).is_pass());
    }

    #[test]
    fn contain_reports_panics_as_verdicts() {
        let verdict = contain("exec", || panic!("boom {}", 7));
        assert_eq!(
            verdict,
            Verdict::Panic {
                oracle: "exec",
                message: "boom 7".to_string()
            }
        );
    }
}
