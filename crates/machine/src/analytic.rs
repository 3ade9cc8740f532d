//! Analytic cache costing: bounded-error miss estimates without a trace walk.
//!
//! The exact tier ([`crate::simulate_cache`]) is run-compressed and sharded,
//! but every call still pays O(distinct cache lines). For the evolutionary
//! search — which prices thousands of candidates and only needs a ranking —
//! this module derives a [`CacheEstimate`] in **O(run signatures)**: the
//! compiled access plans stream through an [`AnalyticSink`] that never
//! expands a run, folding each [`StrideRun`] into closed-form reuse
//! summaries (line-interval coverage per array, per-run line visits, stagger
//! clusters) in O(1) amortized work per run.
//!
//! # The error-bound contract
//!
//! The estimate is *not* bit-identical to the simulator — it is **provably
//! bracketed**. For each cache level the sink maintains
//!
//! * a sound **lower bound** on misses: the compulsory distinct lines, from
//!   the union of the line intervals that sub-line-stride runs fully cover
//!   (merging only overlapping or adjacent intervals, so nothing uncovered
//!   is ever counted), and
//! * a sound **upper bound**: per run, the number of times the run *enters*
//!   a line — `|last_line − first_line| + 1` for sub-line strides, the trip
//!   count otherwise. When a lockstep group has at most `assoc` lanes, at
//!   most `lanes − 1 < assoc` distinct other lines are interleaved between
//!   two consecutive accesses of a run to one line, so the line can never
//!   become the LRU victim in between and re-entries are the only possible
//!   misses. Stagger clusters (same-array lanes one sub-line stride apart
//!   within a line span) tighten this further: trailing taps only ever enter
//!   lines their leader keeps resident, so the whole cluster is charged the
//!   leader's visits plus its startup line.
//!
//! The reported miss count is a capacity interpolation clamped into
//! `[lower, upper]`, and [`CacheEstimate::error_bound`] is
//! `max(estimate − lower, upper − estimate)` — therefore the *exact* miss
//! count of either level always lies within `error_bound` of the estimate.
//! The fuzz farm's analytic oracle and the cache differential suite hold
//! every workload to exactly this contract.

use loop_ir::program::Program;

use crate::cache::{nearest_pow2, CacheStats};
use crate::config::MachineConfig;
use crate::error::Result;
use crate::exec::CompiledProgram;
use crate::trace::{AccessSink, StrideRun, TraceEntry};

use std::collections::BTreeMap;
use std::collections::{HashMap, HashSet};

/// Cap on tracked coverage intervals: past this the sink stops inserting,
/// which only ever *weakens* the lower bound (still sound) while keeping
/// the per-run cost O(log cap).
const MAX_INTERVALS: usize = 4096;

/// Cap on memoized run-group signatures. Past this, new group shapes fold
/// directly (still correct, just not O(1) on their repeats).
const MAX_GROUP_MEMO: usize = 1 << 16;

/// The analytic tier's answer: estimated counters plus the half-width of
/// the proven bracket around the miss counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEstimate {
    /// Exact total access count (closed form over the run plans).
    pub accesses: u64,
    /// Estimated L1 counters (`misses`/`loads` carry the bracketed
    /// estimate; `hits` is `accesses − misses`).
    pub l1: CacheStats,
    /// Estimated L2 counters.
    pub l2: CacheStats,
    /// Proven half-width: the exact miss count of either level differs from
    /// the estimated one by at most this many misses.
    pub error_bound: u64,
    /// Number of distinct `(array, stride, is_write)` run signatures
    /// summarized — the quantity the analytic cost is linear in.
    pub signatures: usize,
}

impl CacheEstimate {
    /// Whether an exactly-simulated pair of per-level counters falls within
    /// the reported error bound of this estimate — the contract the fuzz
    /// oracle and the bench gates check.
    pub fn brackets(&self, exact_l1: &CacheStats, exact_l2: &CacheStats) -> bool {
        exact_l1.misses.abs_diff(self.l1.misses) <= self.error_bound
            && exact_l2.misses.abs_diff(self.l2.misses) <= self.error_bound
    }
}

/// Modeled geometry of one cache level, using the simulator's rounding
/// rules so the analytic capacity matches the simulated capacity exactly.
#[derive(Debug, Clone, Copy)]
struct LevelGeometry {
    /// Total lines the level holds (`set_count * assoc`).
    capacity_lines: u64,
    assoc: u64,
    set_count: u64,
}

impl LevelGeometry {
    fn new(capacity: usize, assoc: usize, line_bytes: u64) -> Self {
        let assoc = assoc.max(1) as u64;
        let lines = ((capacity as u64) / line_bytes).max(assoc);
        let set_count = nearest_pow2(lines / assoc);
        LevelGeometry {
            capacity_lines: set_count * assoc,
            assoc,
            set_count,
        }
    }
}

/// An [`AccessSink`] that folds the run-compressed trace into reuse
/// summaries instead of simulating it. Runs are never expanded; per-access
/// entries (the symbolic fallback for non-affine subscripts) degrade to
/// single-line inserts.
pub struct AnalyticSink {
    line_shift: u32,
    line_bytes: u64,
    l1: LevelGeometry,
    l2: LevelGeometry,
    accesses: u64,
    /// Union of fully covered line intervals, `start_line → end_line`
    /// (inclusive), non-overlapping and non-adjacent by construction.
    coverage: BTreeMap<u64, u64>,
    /// Total lines in `coverage`.
    covered: u64,
    /// Whether `coverage` hit [`MAX_INTERVALS`] and dropped inserts (the
    /// lower bound is then conservative but still sound).
    saturated: bool,
    /// Largest single super-line-stride run (its trip count is a sound
    /// compulsory-miss floor even though its lines are sparse).
    sparse_max: u64,
    /// Summed trip counts of super-line runs — a footprint contribution for
    /// the interpolated estimate (not for the bounds).
    sparse_visits: u64,
    /// Sound upper bound on L1 (and therefore L2) misses.
    upper: u64,
    /// Whether any run wrapped below address zero (its lines are unknown,
    /// voiding the fits-in-cache exactness argument).
    wrapped: bool,
    /// Distinct `(array, stride, is_write)` signatures seen.
    signatures: HashSet<(u32, i64, bool)>,
    /// Per-group-signature summaries: outer loops replay the *identical*
    /// lockstep group every iteration, and folding it again can only add
    /// the same counter deltas (its coverage inserts are idempotent — the
    /// union already contains the intervals). Keyed by the full run slice
    /// (exact equality, no hash-collision risk), so a repeat costs one hash
    /// lookup instead of a re-fold. This is what makes the sink O(run
    /// signatures), not O(loop iterations).
    group_memo: HashMap<Vec<StrideRun>, GroupDelta>,
    /// Multiplier applied to every additive delta — the product of the
    /// active [`AccessSink::begin_repeat`] factors. The emitter announces a
    /// repeat only for loops whose subtree trace is iterator-invariant, and
    /// every additive summary quantity is linear in the repetition count
    /// (coverage and signatures are idempotent, `sparse_max` is a max), so
    /// consuming the body once at scale `n` equals folding it `n` times.
    scale: u64,
    /// Open repeat factors, innermost last.
    repeat_stack: Vec<u64>,
}

/// The replayable *unit* effect of folding one run-group shape once
/// (everything [`AnalyticSink::fold_run`] mutates except the idempotent
/// coverage union and signature set).
#[derive(Clone, Copy)]
struct GroupDelta {
    accesses: u64,
    upper: u64,
    sparse_max: u64,
    sparse_visits: u64,
    wrapped: bool,
}

impl AnalyticSink {
    /// Builds a sink modeling `machine`'s hierarchy.
    pub fn new(machine: &MachineConfig) -> Self {
        let line_bytes = nearest_pow2(machine.line_bytes.max(1) as u64);
        AnalyticSink {
            line_shift: line_bytes.trailing_zeros(),
            line_bytes,
            l1: LevelGeometry::new(machine.l1_bytes, machine.l1_assoc, line_bytes),
            l2: LevelGeometry::new(machine.l2_bytes, machine.l2_assoc, line_bytes),
            accesses: 0,
            coverage: BTreeMap::new(),
            covered: 0,
            saturated: false,
            sparse_max: 0,
            sparse_visits: 0,
            upper: 0,
            wrapped: false,
            signatures: HashSet::new(),
            group_memo: HashMap::new(),
            scale: 1,
            repeat_stack: Vec::new(),
        }
    }

    /// Applies a unit group delta `factor` times in closed form.
    fn apply_delta(&mut self, d: &GroupDelta, factor: u64) {
        self.accesses += d.accesses * factor;
        self.upper += d.upper * factor;
        self.sparse_max = self.sparse_max.max(d.sparse_max);
        self.sparse_visits += d.sparse_visits * factor;
        self.wrapped |= d.wrapped;
    }

    /// Inserts the fully covered inclusive line interval `[lo, hi]`,
    /// merging with overlapping or adjacent intervals only — a gap is never
    /// bridged, so `covered` stays a sound compulsory-miss floor.
    fn cover(&mut self, mut lo: u64, mut hi: u64) {
        if self.saturated {
            return;
        }
        debug_assert!(lo <= hi);
        // Absorb every interval starting at or before `hi + 1` that reaches
        // back to `lo - 1` or later.
        loop {
            let candidate = self
                .coverage
                .range(..=hi.saturating_add(1))
                .next_back()
                .map(|(&s, &e)| (s, e));
            match candidate {
                Some((s, e)) if e.saturating_add(1) >= lo => {
                    self.coverage.remove(&s);
                    self.covered -= e - s + 1;
                    lo = lo.min(s);
                    hi = hi.max(e);
                }
                _ => break,
            }
        }
        self.coverage.insert(lo, hi);
        self.covered += hi - lo + 1;
        if self.coverage.len() >= MAX_INTERVALS {
            self.saturated = true;
        }
    }

    /// Folds one run in as part of a `lanes`-wide lockstep group,
    /// `cluster_visits` carrying the tightened charge when the run belongs
    /// to a stagger cluster (`None` for ordinary lanes).
    fn fold_run(&mut self, r: &StrideRun, lanes: u64, cluster_visits: Option<u64>) {
        if r.count == 0 {
            return;
        }
        self.accesses += r.count;
        self.signatures.insert((r.array, r.stride, r.is_write));
        let end = r.base as i64 + r.stride * (r.count as i64 - 1);
        if end < 0 {
            // Wrapping runs are rare and weird; charge the whole run.
            self.upper += r.count;
            self.wrapped = true;
            return;
        }
        let s_abs = r.stride.unsigned_abs();
        if s_abs > self.line_bytes {
            // Sparse distinct lines: every access enters a fresh line, but
            // the interval is not fully covered, so it may not join the
            // coverage union.
            self.sparse_max = self.sparse_max.max(r.count);
            self.sparse_visits += r.count;
            self.upper += r.count;
            return;
        }
        let first = r.base >> self.line_shift;
        let last = (end as u64) >> self.line_shift;
        let (lo, hi) = (first.min(last), first.max(last));
        self.cover(lo, hi);
        let visits = cluster_visits.unwrap_or(hi - lo + 1);
        self.upper += if lanes <= self.l1.assoc {
            visits
        } else {
            // Too many interleaved lanes: the LRU-victim argument fails and
            // any access may miss.
            r.count
        };
    }

    /// The modeled line size in bytes (after power-of-two rounding).
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Whether every touched line is known (coverage is complete) and the
    /// coverage intervals spread at most `assoc` lines into any one set of
    /// the level — then no line can ever be evicted, every non-first access
    /// hits, and the level's miss count is *exactly* the distinct lines.
    fn provably_fits(&self, level: &LevelGeometry) -> bool {
        if self.saturated || self.wrapped || self.sparse_visits > 0 {
            return false;
        }
        // A contiguous interval of length `len` lands `ceil(len /
        // set_count)` lines in the fullest set; intervals are independent,
        // so the per-set worst case is the sum.
        let spread: u64 = self
            .coverage
            .values()
            .zip(self.coverage.keys())
            .map(|(&end, &start)| (end - start + 1).div_ceil(level.set_count))
            .sum();
        spread <= level.assoc
    }

    /// Finalizes the summaries into a [`CacheEstimate`].
    pub fn finish(&self) -> CacheEstimate {
        let lower = self.covered.max(self.sparse_max);
        let mut upper = self.upper.max(lower);
        if self.provably_fits(&self.l1) {
            // Exactness: misses == compulsory distinct lines at L1, and
            // therefore every L2 probe is a first touch — both levels are
            // exact and the error bound collapses to zero.
            upper = lower;
        }
        let footprint = self.covered + self.sparse_visits;
        let est_l1 = interpolate(lower, upper, footprint, self.l1.capacity_lines);
        let est_l2 = interpolate(lower, upper, footprint, self.l2.capacity_lines).min(est_l1);
        let error_bound = (est_l1 - lower)
            .max(upper - est_l1)
            .max(est_l2 - lower)
            .max(upper - est_l2);
        let l1 = CacheStats {
            loads: est_l1,
            evicts: est_l1.saturating_sub(self.l1.capacity_lines),
            hits: self.accesses - est_l1,
            misses: est_l1,
        };
        let l2 = CacheStats {
            loads: est_l2,
            evicts: est_l2.saturating_sub(self.l2.capacity_lines),
            hits: est_l1 - est_l2,
            misses: est_l2,
        };
        CacheEstimate {
            accesses: self.accesses,
            l1,
            l2,
            error_bound,
            signatures: self.signatures.len(),
        }
    }
}

/// Capacity interpolation between the compulsory floor and the thrash
/// ceiling: a footprint fitting the level re-misses nothing; one dwarfing
/// it approaches the per-entry ceiling linearly in the overflow fraction.
fn interpolate(lower: u64, upper: u64, footprint: u64, capacity_lines: u64) -> u64 {
    if footprint <= capacity_lines || footprint == 0 {
        return lower;
    }
    let overflow = (footprint - capacity_lines) as f64 / footprint as f64;
    let est = lower as f64 + (upper - lower) as f64 * overflow;
    (est as u64).clamp(lower, upper)
}

impl AccessSink for AnalyticSink {
    fn access(&mut self, entry: TraceEntry) {
        self.accesses += self.scale;
        self.upper += self.scale;
        let line = entry.address >> self.line_shift;
        self.cover(line, line);
    }

    fn run(&mut self, start: u64, stride: i64, count: u64, is_write: bool) {
        // Route through the group memo so repeated single-run emissions
        // (outer-loop replays of a non-lockstep body) also fold in O(1).
        let r = StrideRun {
            base: start,
            stride,
            count,
            array: u32::MAX,
            is_write,
        };
        self.run_group(std::slice::from_ref(&r));
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        if let Some(d) = self.group_memo.get(runs).copied() {
            // An already-summarized group shape: replay its unit deltas at
            // the active repeat scale. The coverage union and signature set
            // are untouched — both are idempotent, so the state equals a
            // full re-fold's.
            self.apply_delta(&d, self.scale);
            return;
        }
        let before = (self.accesses, self.upper, self.sparse_visits, self.wrapped);
        self.fold_group(runs);
        let unit = GroupDelta {
            accesses: self.accesses - before.0,
            upper: self.upper - before.1,
            // The running max is monotone and already >= this group's own
            // contribution, so replaying it is exact.
            sparse_max: self.sparse_max,
            sparse_visits: self.sparse_visits - before.2,
            wrapped: self.wrapped && !before.3,
        };
        if self.scale > 1 {
            self.apply_delta(&unit, self.scale - 1);
        }
        if self.group_memo.len() < MAX_GROUP_MEMO {
            self.group_memo.insert(runs.to_vec(), unit);
        }
    }

    fn begin_repeat(&mut self, times: u64) -> bool {
        let times = times.max(1);
        self.repeat_stack.push(times);
        self.scale *= times;
        true
    }

    fn end_repeat(&mut self) {
        let times = self.repeat_stack.pop().unwrap_or(1);
        self.scale /= times;
    }
}

impl AnalyticSink {
    /// Folds a not-yet-memoized lockstep group lane by lane.
    fn fold_group(&mut self, runs: &[StrideRun]) {
        let lanes = runs.len() as u64;
        // Stagger clusters (the cache simulator's merge conditions): a
        // contiguous block of same-array lanes with one nonzero sub-line
        // stride and bases within a line span holds at most two adjacent
        // lines; within associativity, only the leading tap's line entries
        // (plus the startup line) can miss, so the whole cluster is charged
        // `leader visits + 1` instead of the per-lane sum.
        let mut j = 0;
        while j < runs.len() {
            let stride = runs[j].stride;
            let s_abs = stride.unsigned_abs();
            if stride == 0 || s_abs >= self.line_bytes || runs[j].count == 0 {
                self.fold_run(&runs[j], lanes, None);
                j += 1;
                continue;
            }
            let (mut lo, mut hi) = (runs[j].base, runs[j].base);
            let mut k = j + 1;
            while k < runs.len()
                && runs[k].array == runs[j].array
                && runs[k].stride == stride
                && runs[k].count == runs[j].count
            {
                let nlo = lo.min(runs[k].base);
                let nhi = hi.max(runs[k].base);
                if nhi - nlo >= self.line_bytes {
                    break;
                }
                (lo, hi) = (nlo, nhi);
                k += 1;
            }
            let tightened = if k - j >= 2 && lanes <= self.l1.assoc {
                let leader = if stride > 0 { hi } else { lo };
                let end = leader as i64 + stride * (runs[j].count as i64 - 1);
                if end >= 0 {
                    let first = leader >> self.line_shift;
                    let last = (end as u64) >> self.line_shift;
                    Some(first.abs_diff(last) + 2)
                } else {
                    // A wrapping leader voids the residency argument.
                    None
                }
            } else {
                None
            };
            match tightened {
                // Every lane still covers its own interval (the union
                // dedups); the tightened charge lands on the first lane and
                // the rest ride along for free.
                Some(charge) => {
                    for (idx, r) in runs[j..k].iter().enumerate() {
                        self.fold_run(r, lanes, Some(if idx == 0 { charge } else { 0 }));
                    }
                }
                None => {
                    for r in &runs[j..k] {
                        self.fold_run(r, lanes, None);
                    }
                }
            }
            j = k.max(j + 1);
        }
    }
}

/// Computes the analytic cache estimate of an already-lowered program.
///
/// # Errors
/// Propagates lowering/streaming errors (unbound parameters, unknown
/// arrays).
pub fn estimate_cache_compiled(
    compiled: &CompiledProgram,
    machine: &MachineConfig,
) -> Result<CacheEstimate> {
    let _span = telemetry::span("estimate_cache");
    let mut sink = AnalyticSink::new(machine);
    compiled.stream(&mut sink)?;
    Ok(sink.finish())
}

/// Lowers `program` and computes its analytic cache estimate — the
/// trace-free counterpart of [`crate::simulate_cache`].
///
/// # Errors
/// Propagates lowering/streaming errors.
pub fn estimate_cache(program: &Program, machine: &MachineConfig) -> Result<CacheEstimate> {
    estimate_cache_compiled(&CompiledProgram::lower(program)?, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::simulate_cache;
    use loop_ir::parser::parse_program;

    fn assert_bracketed(source: &str, machine: &MachineConfig) {
        let p = parse_program(source).unwrap();
        let est = estimate_cache(&p, machine).unwrap();
        let exact = simulate_cache(&p, machine).unwrap();
        assert_eq!(
            est.accesses,
            exact.accesses(),
            "{}: access counts are closed-form exact",
            p.name
        );
        assert!(
            est.brackets(&exact.l1(), &exact.l2()),
            "{}: exact misses l1={} l2={} outside estimate l1={} l2={} ± {}",
            p.name,
            exact.l1().misses,
            exact.l2().misses,
            est.l1.misses,
            est.l2.misses,
            est.error_bound
        );
    }

    #[test]
    fn estimates_bracket_exact_misses_on_directed_programs() {
        for machine in [MachineConfig::tiny_for_tests(), MachineConfig::default()] {
            for source in [
                // Streaming copy: compulsory misses only.
                "program copy { param N = 4000; array A[N]; array B[N];
                   for i in 0..N { B[i] = A[i]; } }",
                // Column-major walk: super-line strides, near-total missing.
                "program col { param N = 64; array A[N][N];
                   for j in 0..N { for i in 0..N { A[i][j] = 1.0; } } }",
                // Three-point stencil over time steps: stagger reuse.
                "program heat { param N = 512; param T = 4; array A[N]; array B[N];
                   for t in 0..T { for i in 1..N - 1 {
                     B[i] = (A[i - 1] + A[i] + A[i + 1]) * 0.33;
                   } } }",
                // GEMM: repeated sweeps, capacity effects.
                "program gemm { param N = 28; array A[N][N]; array B[N][N]; array C[N][N];
                   for i in 0..N { for j in 0..N { for k in 0..N {
                     C[i][j] += A[i][k] * B[k][j];
                   } } } }",
                // Non-affine subscript: per-access fallback entries.
                "program na { param N = 64; array A[N];
                   for i in 0..N { A[i % 7] = 1.0; } }",
                // Loop-invariant and reversal subscripts.
                "program rev { param N = 900; array A[N]; array B[N]; array C[1];
                   for i in 0..N { B[i] = A[N - 1 - i] + C[0]; } }",
            ] {
                assert_bracketed(source, &machine);
            }
        }
    }

    #[test]
    fn fitting_working_set_estimates_compulsory_misses_exactly() {
        // 16 lines of data in a 16-line L1: the estimate must equal the
        // compulsory floor and the exact simulation must agree.
        let p = parse_program(
            "program fit { param N = 128; param T = 8; array A[N];
               for t in 0..T { for i in 0..N { A[i] = A[i] + 1.0; } } }",
        )
        .unwrap();
        let machine = MachineConfig::tiny_for_tests();
        let est = estimate_cache(&p, &machine).unwrap();
        let exact = simulate_cache(&p, &machine).unwrap();
        assert_eq!(est.l1.misses, 16, "one compulsory miss per line");
        assert_eq!(exact.l1().misses, est.l1.misses);
        assert_eq!(est.error_bound, 0, "a fitting working set is exact");
    }

    #[test]
    fn coverage_union_merges_only_touching_intervals() {
        let machine = MachineConfig::tiny_for_tests();
        let mut sink = AnalyticSink::new(&machine);
        sink.cover(10, 20);
        sink.cover(40, 50);
        assert_eq!(sink.covered, 22, "a gap is never bridged");
        sink.cover(21, 39); // adjacent on both sides: one interval now
        assert_eq!(sink.covered, 41);
        assert_eq!(sink.coverage.len(), 1);
        sink.cover(12, 45); // fully contained: no change
        assert_eq!(sink.covered, 41);
    }

    #[test]
    fn signatures_count_distinct_run_shapes() {
        let p = parse_program(
            "program sig { param N = 100; array A[N]; array B[N];
               for t in 0..4 { for i in 0..N { B[i] = A[i] + A[i]; } } }",
        )
        .unwrap();
        let est = estimate_cache(&p, &MachineConfig::tiny_for_tests()).unwrap();
        // A read, B write — duplicated taps and repeated time steps fold
        // into the same signatures.
        assert_eq!(est.signatures, 2);
    }

    #[test]
    fn invariant_outer_loops_fold_once_and_match_the_iterated_fold() {
        // A wrapper that refuses the repeat protocol forces the emitter to
        // stream all T outer iterations; accepting it must give the exact
        // same estimate and streamed access count, just without the O(T)
        // walk.
        struct NoRepeat(AnalyticSink);
        impl AccessSink for NoRepeat {
            fn access(&mut self, entry: TraceEntry) {
                self.0.access(entry);
            }
            fn run(&mut self, start: u64, stride: i64, count: u64, is_write: bool) {
                self.0.run(start, stride, count, is_write);
            }
            fn run_group(&mut self, runs: &[StrideRun]) {
                self.0.run_group(runs);
            }
        }
        let p = parse_program(
            "program rep { param N = 256; param T = 1000; array A[N]; array B[N];
               for t in 0..T { for i in 0..N { B[i] = A[i] + 1.0; } } }",
        )
        .unwrap();
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut fast = AnalyticSink::new(&machine);
        let fast_count = compiled.stream(&mut fast).unwrap();
        let mut slow = NoRepeat(AnalyticSink::new(&machine));
        let slow_count = compiled.stream(&mut slow).unwrap();
        assert_eq!(fast_count, slow_count, "repeat scaling preserves the count");
        assert_eq!(fast_count, 1000 * 256 * 2);
        assert_eq!(fast.finish(), slow.0.finish());
    }

    #[test]
    fn estimates_are_deterministic() {
        let p = parse_program(
            "program det { param N = 300; array A[N][N];
               for i in 0..N { for j in 0..N { A[i][j] = A[i][j] * 2.0; } } }",
        )
        .unwrap();
        let machine = MachineConfig::default();
        let a = estimate_cache(&p, &machine).unwrap();
        let b = estimate_cache(&p, &machine).unwrap();
        assert_eq!(a, b);
    }
}
