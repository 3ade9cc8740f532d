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
//! * **shard** — the sharded simulation's congruence grouping (see
//!   [`machine::shard`]): on the tiny test machine, the grouped
//!   [`machine::simulate_cache_sharded_with_plan`] must equal the sum of
//!   its shards simulated one plan each (every counter, `probes`
//!   included), and match the per-access sharded oracle
//!   [`machine::simulate_cache_sharded_per_access`] on every counter but
//!   `probes` — on the program and on a blocked twin whose arrays translate
//!   by a period multiple per block trip, so the grouping really groups,
//!   and which reads a point array one scalar per trip, on one line or
//!   straddling two.
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
    simulate_cache, simulate_cache_per_access, simulate_cache_reference,
    simulate_cache_sharded_per_access, simulate_cache_sharded_with_plan, CacheStats,
    CompiledProgram, Interpreter, MachineConfig, ShardGranularity, ShardPlan, TraceEntry,
};
use normalize::Normalizer;

/// Names of all oracles, in the order [`check_all`] runs them.
pub const ORACLES: [&str; 7] = [
    "exec",
    "trace",
    "cache",
    "analytic",
    "shard",
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
/// The shard oracle always runs. `case_index` drives the schedule-oracle
/// subsampling.
pub fn check_all(program: &Program, oracles: &OracleSelection, case_index: u64) -> Verdict {
    let battery: [(&'static str, bool, OracleFn); 7] = [
        ("exec", oracles.exec, exec_oracle),
        ("trace", oracles.trace, trace_oracle),
        ("cache", oracles.cache, cache_oracle),
        ("analytic", oracles.analytic, analytic_oracle),
        ("shard", true, shard_oracle),
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
        "shard" => shard_oracle,
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

/// Trips of the block loop [`translated_blocks`] wraps a program in.
const SHARD_TRIPS: i64 = 3;

fn shard_oracle(program: &Program) -> std::result::Result<(), String> {
    shard_differential(program, "")?;
    match translated_blocks(program) {
        Some(blocked) => shard_differential(&blocked, "translated blocks: "),
        None => Ok(()),
    }
}

/// `program` repeated under a fresh block loop of [`SHARD_TRIPS`] trips,
/// every array gaining a leading dimension that trip `r` indexes at
/// `r · k`, with `k` the smallest factor that makes the array's per-trip
/// translation a multiple of 4 KiB (hence of the tiny machine's 1 KiB
/// translation period). Every statement also reads the point array
/// `shard_point[c + r]`, one scalar per trip moving 8 B per trip, with `c`
/// the program's total element count modulo 8: the three trips read one
/// line when `c ≤ 5` and straddle two otherwise. Generated programs rarely
/// translate by a period multiple on their own; this twin puts its block
/// shards in one congruence class per point line exactly when the
/// grouping's preconditions hold. `None` for programs with library calls
/// or unsized arrays.
fn translated_blocks(program: &Program) -> Option<Program> {
    let r = Var::new("shard_block");
    let mut scale = std::collections::BTreeMap::new();
    let mut blocked = program.clone();
    let mut elements = 0;
    for (name, array) in &mut blocked.arrays {
        let len = array.len(&program.params)?;
        let k = 4096i64 >> (len * array.elem_size as i64).trailing_zeros().min(12);
        array.dims.insert(0, cst(SHARD_TRIPS * k));
        scale.insert(name.clone(), k);
        elements += len;
    }
    let shift = |a: &ArrayRef| {
        let mut shifted = a.clone();
        shifted
            .indices
            .insert(0, cst(scale[&a.array]) * var(r.as_str()));
        shifted
    };
    let c = elements.rem_euclid(8);
    let point = Var::new("shard_point");
    blocked.arrays.insert(
        point.clone(),
        Array::new(point.clone(), vec![cst(c + SHARD_TRIPS)]),
    );
    let point_read = load(point, vec![cst(c) + var(r.as_str())]);
    let body = shift_nodes(&program.body, &shift, &point_read)?;
    blocked.body = vec![for_loop(r.clone(), cst(0), cst(SHARD_TRIPS), body)];
    blocked.validate().ok().map(|()| blocked)
}

/// Rewrites every array reference of `nodes` through `shift` and adds
/// `extra` to every statement's value; `None` when a library call (whose
/// operands are whole arrays) is present.
fn shift_nodes(
    nodes: &[Node],
    shift: &impl Fn(&ArrayRef) -> ArrayRef,
    extra: &ScalarExpr,
) -> Option<Vec<Node>> {
    nodes
        .iter()
        .map(|node| match node {
            Node::Loop(l) => Some(Node::Loop(Loop {
                body: shift_nodes(&l.body, shift, extra)?,
                ..l.clone()
            })),
            Node::Computation(c) => Some(Node::Computation(Computation {
                target: shift(&c.target),
                value: ScalarExpr::Binary(
                    BinOp::Add,
                    Box::new(shift_loads(&c.value, shift)),
                    Box::new(extra.clone()),
                ),
                ..c.clone()
            })),
            Node::Call(_) => None,
        })
        .collect()
}

fn shift_loads(e: &ScalarExpr, shift: &impl Fn(&ArrayRef) -> ArrayRef) -> ScalarExpr {
    let boxed = |e: &ScalarExpr| Box::new(shift_loads(e, shift));
    match e {
        ScalarExpr::Load(a) => ScalarExpr::Load(shift(a)),
        ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Index(_) => e.clone(),
        ScalarExpr::Unary(op, a) => ScalarExpr::Unary(*op, boxed(a)),
        ScalarExpr::Binary(op, a, b) => ScalarExpr::Binary(*op, boxed(a), boxed(b)),
        ScalarExpr::Select {
            lhs,
            cmp,
            rhs,
            then,
            otherwise,
        } => ScalarExpr::Select {
            lhs: boxed(lhs),
            cmp: *cmp,
            rhs: boxed(rhs),
            then: boxed(then),
            otherwise: boxed(otherwise),
        },
    }
}

/// The shard differential on one program; `label` prefixes the failure
/// detail so the derived twin's failures say so.
fn shard_differential(program: &Program, label: &str) -> std::result::Result<(), String> {
    let machine = MachineConfig::tiny_for_tests();
    // Lowering and planning faults are the exec and cache oracles' business.
    let Ok(compiled) = CompiledProgram::lower(program) else {
        return Ok(());
    };
    let Ok(plan) = ShardPlan::for_program(&compiled) else {
        return Ok(());
    };
    let grouped = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1);
    let oracle = simulate_cache_sharded_per_access(&compiled, &plan, &machine);
    // Every shard on a plan of its own: one shard is one class, so nothing
    // is grouped.
    let zero = (0u64, 0u64, CacheStats::default(), CacheStats::default());
    let ungrouped =
        plan.shards()
            .iter()
            .try_fold(zero, |(accesses, probes, mut l1, mut l2), &cut| {
                let single = match plan.granularity() {
                    ShardGranularity::Blocks => ShardPlan::blocks(vec![cut]),
                    ShardGranularity::RunGroups => ShardPlan::run_groups(vec![cut]),
                };
                let s = simulate_cache_sharded_with_plan(&compiled, &single, &machine, 1)?;
                l1.merge(&s.l1());
                l2.merge(&s.l2());
                Ok((accesses + s.accesses(), probes + s.probes(), l1, l2))
            });
    match (grouped, ungrouped, oracle) {
        (Ok(grouped), Ok(ungrouped), Ok(oracle)) => {
            let counters = (grouped.accesses(), grouped.l1(), grouped.l2());
            if (counters.0, grouped.probes(), counters.1, counters.2) != ungrouped {
                return Err(format!(
                    "{label}grouped sharded counters diverge from the ungrouped shards: {grouped:?} vs {ungrouped:?}"
                ));
            }
            if counters != (oracle.accesses(), oracle.l1(), oracle.l2()) {
                return Err(format!(
                    "{label}grouped sharded counters diverge from the per-access oracle: {grouped:?} vs {oracle:?}"
                ));
            }
            Ok(())
        }
        (Err(g), Err(u), Err(o))
            if std::mem::discriminant(&g) == std::mem::discriminant(&u)
                && std::mem::discriminant(&u) == std::mem::discriminant(&o) =>
        {
            Ok(())
        }
        (g, u, o) => Err(format!(
            "{label}sharded outcomes diverge: grouped {:?}, ungrouped {:?}, per-access {:?}",
            g.err().map(|e| e.to_string()),
            u.err().map(|e| e.to_string()),
            o.err().map(|e| e.to_string()),
        )),
    }
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
    fn translated_twins_read_their_point_array_on_one_line_or_two() {
        // The twin's point read must reach both key cases: three trips on
        // one line of `shard_point` (one class) and straddling two (two).
        let machine = MachineConfig::tiny_for_tests();
        let mut class_counts = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let Some(twin) = translated_blocks(&generate(seed, &GenConfig::default())) else {
                continue;
            };
            let compiled = CompiledProgram::lower(&twin).unwrap();
            let plan = ShardPlan::for_program(&compiled).unwrap();
            let (_, tally) =
                machine::simulate_cache_sharded_tallied(&compiled, &plan, &machine, 1).unwrap();
            class_counts.insert(tally.classes);
        }
        assert!(
            class_counts.contains(&1) && class_counts.contains(&2),
            "class counts seen: {class_counts:?}"
        );
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
