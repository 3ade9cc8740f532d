//! Block-sharded parallel cache simulation.
//!
//! The CLOUDSC proxy iterates `NBLOCKS` independent blocks in its outermost
//! loop; at the paper's full `NBLOCKS = 4096` one thread walking the whole
//! trace (~1.6B accesses) is the bottleneck of every trace-backed figure.
//! This module cuts a compiled program's trace into shards, streams each
//! shard through its *own* [`CacheHierarchy`] replica on a worker pool, and
//! merges the per-shard counters with an order-independent reduction.
//! Shards whose traces provably translate into one another share one
//! simulation (see [Congruence classes](#congruence-classes)).
//!
//! # Shard granularity
//!
//! [`ShardPlan::for_program`] picks the cut:
//!
//! * **Blocks** — when the program body is exactly one top-level loop with
//!   nested structure (the CLOUDSC `IBL` block loop after lowering), each
//!   shard is one iteration of that loop, streamed directly via a
//!   shard-ranged walk — no shard ever touches another shard's trace, and
//!   the whole fan-out walks the trace at most once.
//! * **Run groups** — any other shape falls back to cutting the stream of
//!   *emission units* (lockstep run groups and bare accesses) into at most
//!   [`RUN_GROUP_SHARDS`] contiguous windows. Each shard replays the walk
//!   and simulates only its window, so the fallback trades a bounded number
//!   of cheap re-walks for not needing any structural precondition.
//!
//! # Determinism contract
//!
//! The plan is a pure function of the compiled program, and its congruence
//! classes of the program and the cache geometry — never of the worker
//! count — and each shard is simulated on a cold replica, so the
//! merged [`ShardedCacheStats`] are **bit-identical at any worker count**:
//! `simulate_cache_sharded` with 8 workers equals the same call with 1
//! worker, counter for counter. A plan with a single all-covering shard
//! degenerates to exactly [`simulate_cache`](crate::simulate_cache).
//!
//! Cold replicas mean shard boundaries reset cache state: relative to one
//! monolithic simulation, a multi-shard run charges each shard its own
//! compulsory misses instead of inheriting a warm cache. For block-disjoint
//! traces like CLOUDSC (each block touches its own array slabs) the stale
//! lines a monolithic run would evict occupy ways exactly like the empty
//! ways of a cold replica, so hits, misses and loads coincide with the
//! monolithic counters; only `evicts` is defined per shard.
//!
//! # Congruence classes
//!
//! Most block shards need no simulation of their own. The CLOUDSC blocks
//! stream one address pattern, translated by a fixed byte stride per block
//! trip. On a cold replica, two traces that differ by a per-array
//! translation that is a multiple of every level's set period
//! (`sets × line`, a power of two) produce identical counters: the
//! translation keeps every address's set index and line offset, and maps
//! lines one-to-one, so every set sees the same hit, miss and eviction
//! sequence, and every fast path of the simulator takes the same branches
//! (`probes` included).
//!
//! [`simulate_cache_sharded_with_plan`] therefore groups block shards
//! into congruence classes, simulates one representative per class and
//! multiplies its accesses, probes and per-level [`CacheStats`] by the
//! class size ([`simulate_cache_sharded_tallied`] also reports the class
//! count and the accesses actually streamed as a [`ShardTally`]); the merged
//! [`ShardedCacheStats`] (`shards()` included) equal the ungrouped
//! result. The key of shard `[lo, hi)` is
//! `(hi − lo, (lo · Δ_a) mod P for every array a)`, where `Δ_a` is array
//! `a`'s byte translation per block trip and `P` is the largest
//! `sets × line` over the levels: at the paper geometry, 140288 B per
//! trip modulo 32 KiB leaves at most 32 classes of the 4096 shards. Point
//! arrays (the fifth bullet below) key by their line instead.
//!
//! Grouping is a proof, not a heuristic. Shards keep the identity grouping
//! (one class each) unless all four preconditions hold, and a point array
//! keys by its line only under the fifth clause:
//!
//! * **Shape.** Every access in the block body is affine, with one
//!   translation per array. No descendant loop bound references the block
//!   slot, and no inner loop reuses it. Every trip then walks the same loop
//!   structure and emits the same run groups, translated.
//! * **Set and line period.** Every `Δ_a` difference within a class is
//!   `≡ 0 mod P`. The key guarantees it by construction.
//! * **No aliasing.** Every access of the first and the last block trip
//!   lies inside its own array's extent. Affine offsets reach their
//!   extremes at those two trips, so this covers every trip.
//!   [`AddressMap`](crate::cache::AddressMap) lays arrays out disjoint and
//!   4 KiB-aligned, and lines are at most that large, so distinct arrays
//!   never share a line — even when arrays translate differently (the
//!   DaCe/daisy `NPROMA` temporaries have `Δ = 0` while the fields move).
//! * **No clamping.** The in-bounds check also rules out the trace's
//!   `offset.max(0)` clamp, which is not a translation.
//! * **Point arrays.** An array whose block-body accesses all share one
//!   affine flat offset, with no term on a loop slot inside the block loop,
//!   touches one address per trip. In a one-trip shard its key component
//!   is `⌊(off_a + lo · Δ_a) / L⌋ mod (P / L)` instead, with `off_a` its
//!   byte offset at trip 0 and `L` the line size: the line it touches, up
//!   to the set period. Array bases are 4 KiB-aligned, so `L` divides them;
//!   the simulator reads a stride-0 lane or a bare access only through its
//!   line (`line_of`, `lane.line = base >> shift`), and no fast path looks
//!   at the byte within that line. Shards whose point lines differ by a
//!   multiple of `P / L` lines therefore see one line per set mapped to one
//!   line of the same set and take identical branches, `probes` included.
//!   The component is coarser than the phase, so it never splits a phase
//!   class. A multi-trip shard walks several point lines whose spacing
//!   depends on the byte within the line, so it keeps the phase. fdtd-2d's
//!   `fict[t]` moves 8 B per time step: at Medium its 100 shards fall into
//!   13 classes, one per line of `fict`.
//!
//! Only the run-compressed driver groups. [`simulate_cache_sharded_per_access`]
//! simulates every shard and stays the differential oracle of the
//! grouping.
//!
//! The worker pool mirrors the clamping and panic containment of `daisy`'s
//! `parallel_map_with` (which lives above this crate and cannot be reused
//! directly): explicit worker requests clamp to the machine's available
//! parallelism and the job count, a panicking job is retried
//! sequentially on the caller, and results are merged by class index.

use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use loop_ir::program::Program;

use crate::cache::{congruence_geometry, CacheHierarchy, CacheStats};
use crate::config::MachineConfig;
use crate::error::Result;
use crate::exec::{ArrayTranslation, CompiledProgram};
use crate::trace::{AccessSink, CacheSink, PerAccessCacheSink, StrideRun, TraceEntry};

/// Maximum shard count of the run-group fallback. Each fallback shard
/// replays the full trace walk (simulating only its window), so the cut
/// count bounds the re-walk overhead; it is a constant — not derived from
/// the worker count — because the shard plan must never depend on how many
/// workers later execute it (see the module-level determinism contract).
pub const RUN_GROUP_SHARDS: usize = 16;

/// At which granularity a [`ShardPlan`] cuts the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGranularity {
    /// Iteration sub-ranges of the single top-level (block) loop.
    Blocks,
    /// Contiguous windows of trace emission units (lockstep run groups and
    /// bare accesses), the fallback for non-blocked programs.
    RunGroups,
}

/// A deterministic cut of a compiled program's trace into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    granularity: ShardGranularity,
    /// Half-open `[lo, hi)` ranges in trip-index space (`Blocks`) or
    /// emission-unit space (`RunGroups`); sorted, non-overlapping.
    cuts: Vec<(u64, u64)>,
}

impl ShardPlan {
    /// Builds the canonical plan for a compiled program: one shard per
    /// block when the program is block-shardable, at most
    /// [`RUN_GROUP_SHARDS`] near-equal emission-unit windows otherwise.
    /// The result depends only on the program, never on the worker count.
    ///
    /// # Errors
    /// Bound or subscript evaluation errors from the unit-counting walk of
    /// the fallback path.
    pub fn for_program(compiled: &CompiledProgram) -> Result<ShardPlan> {
        if let Some(trips) = compiled.block_trips() {
            return Ok(ShardPlan {
                granularity: ShardGranularity::Blocks,
                cuts: (0..trips).map(|t| (t, t + 1)).collect(),
            });
        }
        let mut counter = UnitCounter { units: 0 };
        compiled.stream(&mut counter)?;
        Ok(ShardPlan {
            granularity: ShardGranularity::RunGroups,
            cuts: partition(counter.units, RUN_GROUP_SHARDS),
        })
    }

    /// The degenerate plan with one shard covering the whole trace — by
    /// construction bit-identical to the monolithic
    /// [`simulate_cache`](crate::simulate_cache).
    ///
    /// # Errors
    /// As [`ShardPlan::for_program`].
    pub fn single(compiled: &CompiledProgram) -> Result<ShardPlan> {
        let plan = ShardPlan::for_program(compiled)?;
        let total = plan.cuts.last().map_or(0, |&(_, hi)| hi);
        Ok(ShardPlan {
            granularity: plan.granularity,
            cuts: if total == 0 {
                Vec::new()
            } else {
                vec![(0, total)]
            },
        })
    }

    /// A block-granularity plan with explicit trip-index cuts, for tests
    /// exercising ragged and irregular shard shapes. Ranges past the block
    /// loop's trip count clamp to it (streaming nothing beyond the end).
    pub fn blocks(cuts: Vec<(u64, u64)>) -> ShardPlan {
        ShardPlan {
            granularity: ShardGranularity::Blocks,
            cuts,
        }
    }

    /// A run-group-granularity plan with explicit emission-unit windows.
    /// Units outside `[0, total units)` select nothing.
    pub fn run_groups(cuts: Vec<(u64, u64)>) -> ShardPlan {
        ShardPlan {
            granularity: ShardGranularity::RunGroups,
            cuts,
        }
    }

    /// The granularity this plan cuts at.
    pub fn granularity(&self) -> ShardGranularity {
        self.granularity
    }

    /// The shard ranges, half-open, in plan order.
    pub fn shards(&self) -> &[(u64, u64)] {
        &self.cuts
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// True when the plan has no shards (a zero-trip block loop or an
    /// empty trace).
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// A stable 64-bit digest of the plan (granularity and every cut) —
    /// the shard-aware component of the cost model's simulation memo keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(match self.granularity {
            ShardGranularity::Blocks => 1,
            ShardGranularity::RunGroups => 2,
        });
        for &(lo, hi) in &self.cuts {
            mix(lo);
            mix(hi);
        }
        h
    }
}

/// Splits `[0, total)` into at most `shards` near-equal contiguous ranges,
/// earlier ranges taking the remainder (the last shard may be ragged).
fn partition(total: u64, shards: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let shards = (shards as u64).clamp(1, total);
    let (base, rem) = (total / shards, total % shards);
    let mut cuts = Vec::with_capacity(shards as usize);
    let mut lo = 0;
    for s in 0..shards {
        let hi = lo + base + u64::from(s < rem);
        cuts.push((lo, hi));
        lo = hi;
    }
    cuts
}

/// The congruence classes of a plan's shards, in plan order of their
/// representatives: each class's representative shard index and size.
/// Shards in one class have traces that are translates of one another by
/// a multiple of the cache geometry's translation period, so one
/// cold-replica simulation stands for all of them (see the module docs
/// for the proof and its preconditions). Run-group plans, and block plans
/// whose program fails a precondition, get the identity grouping: one
/// class per shard.
///
/// Block shard `[lo, hi)` (clamped to the trip count) is keyed by its
/// length and one residue per array: `(lo · Δ_a) mod P`, with `Δ_a` the
/// lowering's per-trip byte translation
/// (`CompiledProgram::block_translation`) and `P` the translation period
/// ([`congruence_geometry`]); for a point array in a one-trip shard,
/// `⌊(off_a + lo · Δ_a) / L⌋ mod (P / L)` instead, with `off_a` its byte
/// offset at trip 0 and `L` the line size.
pub(crate) fn congruence_classes(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
) -> Vec<(usize, u64)> {
    let congruence = match (plan.granularity(), compiled.block_trips()) {
        (ShardGranularity::Blocks, Some(trips)) => {
            congruence_geometry(machine).and_then(|geometry| {
                compiled
                    .block_translation()
                    .map(|arrays| (trips, arrays, geometry))
            })
        }
        _ => None,
    };
    let Some((trips, arrays, (period, line))) = congruence else {
        return (0..plan.len()).map(|shard| (shard, 1)).collect();
    };
    let (period, line) = (i128::from(period), i128::from(line));
    // A point array's one line per trip carries its whole footprint; a
    // multi-trip shard walks several of its lines, whose spacing only the
    // byte phase pins down.
    let residue = |lo: u64, len: u64, array: &ArrayTranslation| {
        let moved = i128::from(lo) * i128::from(array.delta);
        let residue = match array.point {
            Some(offset) if len == 1 => (i128::from(offset) + moved)
                .div_euclid(line)
                .rem_euclid(period / line),
            _ => moved.rem_euclid(period),
        };
        residue as u64
    };
    let mut index: HashMap<(u64, Vec<u64>), usize> = HashMap::new();
    let mut classes: Vec<(usize, u64)> = Vec::new();
    for (shard, &(lo, hi)) in plan.shards().iter().enumerate() {
        let lo = lo.min(trips);
        let len = hi.min(trips).saturating_sub(lo);
        let key = (len, arrays.iter().map(|a| residue(lo, len, a)).collect());
        match index.entry(key) {
            Entry::Occupied(class) => classes[*class.get()].1 += 1,
            Entry::Vacant(slot) => {
                slot.insert(classes.len());
                classes.push((shard, 1));
            }
        }
    }
    classes
}

/// The work one sharded simulation actually did, beside the counters it
/// reports ([`ShardedCacheStats`] describe every shard; congruence classes
/// let the driver simulate fewer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardTally {
    /// Congruence classes: the shards simulated, one representative each.
    pub classes: usize,
    /// Accesses the class representatives streamed.
    pub simulated_accesses: u64,
}

/// The merged counters of one sharded simulation. `PartialEq` compares
/// every counter, so asserting two results equal *is* the bit-identity
/// check of the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCacheStats {
    accesses: u64,
    probes: u64,
    l1: CacheStats,
    l2: CacheStats,
    shards: usize,
    granularity: ShardGranularity,
}

impl ShardedCacheStats {
    /// Total accesses simulated across all shards.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cache lookups across all shards and both levels.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Merged L1 counters.
    pub fn l1(&self) -> CacheStats {
        self.l1
    }

    /// Merged L2 counters.
    pub fn l2(&self) -> CacheStats {
        self.l2
    }

    /// Number of shards the plan cut the trace into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The granularity the trace was cut at.
    pub fn granularity(&self) -> ShardGranularity {
        self.granularity
    }
}

/// Simulates a program's cache behavior sharded across `workers` worker
/// threads (`0` lets the machine decide) under the canonical
/// [`ShardPlan::for_program`] plan. Counters are bit-identical at any
/// worker count; see the module docs for the exact contract.
///
/// # Errors
/// Lowering and trace-generation errors.
pub fn simulate_cache_sharded(
    program: &Program,
    machine: &MachineConfig,
    workers: usize,
) -> Result<ShardedCacheStats> {
    let compiled = CompiledProgram::lower(program)?;
    let plan = ShardPlan::for_program(&compiled)?;
    simulate_cache_sharded_with_plan(&compiled, &plan, machine, workers)
}

/// [`simulate_cache_sharded`] with an explicit plan: groups the shards
/// into congruence classes, streams each class representative through its
/// own cold [`CacheHierarchy`] replica on the worker pool, and merges the
/// counters — each representative's scaled by its class size — by class
/// index (field-wise sums, so any worker schedule produces bit-identical
/// totals). The result equals simulating every shard on its own replica;
/// see the module docs for the congruence proof.
///
/// # Errors
/// Trace-generation errors; the first failing representative (in plan
/// order) wins.
pub fn simulate_cache_sharded_with_plan(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
    workers: usize,
) -> Result<ShardedCacheStats> {
    simulate_cache_sharded_tallied(compiled, plan, machine, workers).map(|(stats, _)| stats)
}

/// [`simulate_cache_sharded_with_plan`], also returning the driver's
/// [`ShardTally`]: the class count and the accesses the representatives
/// streamed, for reporting simulation throughput truthfully. The same
/// tally goes to telemetry as `machine.shard.classes` and
/// `machine.shard.simulated_accesses`.
///
/// # Errors
/// Trace-generation errors; the first failing representative (in plan
/// order) wins.
pub fn simulate_cache_sharded_tallied(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
    workers: usize,
) -> Result<(ShardedCacheStats, ShardTally)> {
    let _span = telemetry::span("simulate_cache_sharded");
    let classes = congruence_classes(compiled, plan, machine);
    let class_results = parallel_map_shards(workers, &classes, |&(rep, _)| {
        let _shard_span = telemetry::span("shard");
        let (lo, hi) = plan.shards()[rep];
        let mut cache = CacheHierarchy::from_machine(machine);
        simulate_shard(compiled, plan.granularity(), lo, hi, &mut cache)?;
        Ok::<_, crate::error::MachineError>((
            cache.accesses(),
            cache.probes(),
            cache.l1(),
            cache.l2(),
        ))
    });
    let mut merged = ShardedCacheStats {
        accesses: 0,
        probes: 0,
        l1: CacheStats::default(),
        l2: CacheStats::default(),
        shards: plan.len(),
        granularity: plan.granularity(),
    };
    let mut tally = ShardTally {
        classes: classes.len(),
        simulated_accesses: 0,
    };
    for (&(_, size), result) in classes.iter().zip(class_results) {
        let (accesses, probes, l1, l2) = result?;
        tally.simulated_accesses += accesses;
        merged.accesses += accesses * size;
        merged.probes += probes * size;
        merged.l1.merge(&l1.times(size));
        merged.l2.merge(&l2.times(size));
    }
    record_sharded_counters(&merged, &tally);
    Ok((merged, tally))
}

/// The sequential per-access oracle of the differential suite: the same
/// shard decomposition, but every shard's stream expanded through the
/// retained per-access pipeline
/// ([`simulate_cache_per_access`](crate::simulate_cache_per_access)'s sink)
/// instead of the run-group fast path. Accesses and per-level counters are
/// bit-identical to [`simulate_cache_sharded_with_plan`] at any worker
/// count — that equality is exactly the run-compression contract, shard by
/// shard. (`probes` is a property of the pipeline, not of the contract:
/// run compression probes once per distinct line, this oracle once per
/// access.)
///
/// # Errors
/// Trace-generation errors.
pub fn simulate_cache_sharded_per_access(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
) -> Result<ShardedCacheStats> {
    let mut merged = ShardedCacheStats {
        accesses: 0,
        probes: 0,
        l1: CacheStats::default(),
        l2: CacheStats::default(),
        shards: plan.len(),
        granularity: plan.granularity(),
    };
    for &(lo, hi) in plan.shards() {
        let mut cache = CacheHierarchy::from_machine(machine);
        match plan.granularity() {
            ShardGranularity::Blocks => {
                let mut sink = PerAccessCacheSink { cache: &mut cache };
                compiled.stream_block_range(lo, hi, &mut sink)?;
            }
            ShardGranularity::RunGroups => {
                let mut sink = UnitWindow {
                    inner: PerAccessCacheSink { cache: &mut cache },
                    next: 0,
                    lo,
                    hi,
                };
                compiled.stream(&mut sink)?;
            }
        }
        merged.accesses += cache.accesses();
        merged.probes += cache.probes();
        merged.l1.merge(&cache.l1());
        merged.l2.merge(&cache.l2());
    }
    Ok(merged)
}

/// Streams one shard into `cache` through the run-compressed sink.
fn simulate_shard(
    compiled: &CompiledProgram,
    granularity: ShardGranularity,
    lo: u64,
    hi: u64,
    cache: &mut CacheHierarchy,
) -> Result<()> {
    match granularity {
        ShardGranularity::Blocks => {
            let mut sink = CacheSink { cache };
            compiled.stream_block_range(lo, hi, &mut sink)?;
        }
        ShardGranularity::RunGroups => {
            let mut sink = UnitWindow {
                inner: CacheSink { cache },
                next: 0,
                lo,
                hi,
            };
            compiled.stream(&mut sink)?;
        }
    }
    Ok(())
}

/// Publishes the counters of one finished sharded simulation, at the
/// simulation boundary only (the per-class hot paths carry no telemetry
/// cost beyond one span each). `machine.shard.accesses` counts the
/// accesses the result represents, `machine.shard.simulated_accesses` the
/// ones the class representatives actually streamed.
fn record_sharded_counters(stats: &ShardedCacheStats, tally: &ShardTally) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("machine.shard.simulations", 1);
    telemetry::counter("machine.shard.shards", stats.shards as u64);
    telemetry::counter("machine.shard.classes", tally.classes as u64);
    telemetry::counter("machine.shard.accesses", stats.accesses);
    telemetry::counter("machine.shard.simulated_accesses", tally.simulated_accesses);
}

/// Counts trace emission units — each lockstep run group, standalone run
/// or bare access is one unit, the atom run-group granularity cuts at.
struct UnitCounter {
    units: u64,
}

impl AccessSink for UnitCounter {
    fn access(&mut self, _entry: TraceEntry) {
        self.units += 1;
    }

    fn run(&mut self, _start: u64, _stride: i64, _count: u64, _is_write: bool) {
        self.units += 1;
    }

    fn run_group(&mut self, _runs: &[StrideRun]) {
        self.units += 1;
    }
}

/// Forwards only the emission units with index in `[lo, hi)` to the inner
/// sink; everything else is counted and dropped. Whole units are never
/// split, so the windows of a run-group plan tile the trace exactly.
struct UnitWindow<S> {
    inner: S,
    next: u64,
    lo: u64,
    hi: u64,
}

impl<S> UnitWindow<S> {
    fn take(&mut self) -> bool {
        let unit = self.next;
        self.next += 1;
        self.lo <= unit && unit < self.hi
    }
}

impl<S: AccessSink> AccessSink for UnitWindow<S> {
    fn access(&mut self, entry: TraceEntry) {
        if self.take() {
            self.inner.access(entry);
        }
    }

    fn run(&mut self, start: u64, stride: i64, count: u64, is_write: bool) {
        if self.take() {
            self.inner.run(start, stride, count, is_write);
        }
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        if self.take() {
            self.inner.run_group(runs);
        }
    }
}

/// The worker-thread count the shard pool actually uses for a request:
/// `0` means "the machine decides"; any explicit request is clamped to
/// [`std::thread::available_parallelism`] — oversubscribing cores only adds
/// spawn and scheduling overhead — and to the shard count. Mirrors the
/// scheduler-side clamp of `daisy`'s `parallel_map_with`.
pub fn effective_sim_workers(requested: usize, shards: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if requested == 0 {
        available
    } else {
        requested.min(available)
    };
    requested.min(shards)
}

/// Maps `f` over shards on scoped worker threads, preserving order —
/// `daisy::search::parallel_map_with`'s contract rebuilt below that crate:
/// a panic inside `f` is contained to the shard that raised it (the worker
/// keeps draining the queue) and the poisoned shard is retried sequentially
/// on the caller, where a deterministic panic re-raises with an intact
/// backtrace. Results are written back by shard index, so the output is
/// independent of the worker count for any pure `f`.
fn parallel_map_shards<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = effective_sim_workers(workers, items.len());
    if !items.is_empty() {
        telemetry::counter("machine.shard.jobs", items.len() as u64);
        telemetry::counter("machine.shard.pool_workers", workers.max(1) as u64);
    }
    if workers <= 1 {
        return items
            .iter()
            .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))).unwrap_or_else(|_| f(item)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            return out;
                        }
                        let attempt = catch_unwind(AssertUnwindSafe(|| f(&items[index])));
                        if let Ok(value) = attempt {
                            out.push((index, value));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            // A worker body only exits by returning `out`; a join error
            // would mean a panic escaped catch_unwind — skip it and let
            // the sequential retry decide.
            let Ok(chunk) = handle.join() else { continue };
            // The worker-utilization histogram: how many shards each
            // worker ended up serving under work stealing.
            telemetry::histogram("machine.shard.worker_items", chunk.len() as u64);
            for (index, value) in chunk {
                results[index] = Some(value);
            }
        }
    });
    items
        .iter()
        .zip(results)
        .map(|(item, slot)| match slot {
            Some(value) => value,
            None => f(item),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{simulate_cache, simulate_cache_per_access};
    use loop_ir::parser::parse_program;

    /// `N = 16` keeps each block's 128-byte slab line-aligned, so blocks
    /// are line-disjoint (the CLOUDSC layout property the disjointness test
    /// relies on).
    fn blocked_program(nblocks: i64) -> Program {
        parse_program(&format!(
            "program blocked {{ param NB = {nblocks}; param N = 16;
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {{
                 for i in 0..N {{ B[b * N + i] = A[b * N + i] * 2.0; }}
               }} }}"
        ))
        .expect("blocked program parses")
    }

    /// Equality on everything except `probes`: how often the simulator
    /// probed is a property of the pipeline (run compression probes once
    /// per distinct line, the per-access baseline once per access), not of
    /// the determinism contract, which covers the cache *counters*.
    fn assert_counters_eq(a: &ShardedCacheStats, b: &ShardedCacheStats) {
        assert_eq!(a.accesses(), b.accesses());
        assert_eq!(a.l1(), b.l1());
        assert_eq!(a.l2(), b.l2());
        assert_eq!(a.shards(), b.shards());
    }

    fn flat_program() -> Program {
        parse_program(
            "program flat { param N = 64; array A[N]; array B[N];
               for i in 0..N { B[i] = A[i] + 1.0; } }",
        )
        .expect("flat program parses")
    }

    fn multi_nest_program() -> Program {
        parse_program(
            "program multi { param N = 16; array A[N][N]; array C[N];
               for i in 0..N { C[i] = A[i][0]; }
               for i in 0..N { for j in 0..N { A[i][j] = C[i] * 2.0; } } }",
        )
        .expect("multi-nest program parses")
    }

    #[test]
    fn blocked_programs_shard_one_block_per_shard() {
        let compiled = CompiledProgram::lower(&blocked_program(7)).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.shards()[0], (0, 1));
        assert_eq!(plan.shards()[6], (6, 7));
    }

    #[test]
    fn flat_and_multi_nest_programs_fall_back_to_run_groups() {
        for program in [flat_program(), multi_nest_program()] {
            let compiled = CompiledProgram::lower(&program).unwrap();
            let plan = ShardPlan::for_program(&compiled).unwrap();
            assert_eq!(plan.granularity(), ShardGranularity::RunGroups);
            assert!(!plan.is_empty(), "{}: empty plan", program.name);
            assert!(plan.len() <= RUN_GROUP_SHARDS);
            // The windows tile the unit space.
            let mut expected = 0;
            for &(lo, hi) in plan.shards() {
                assert_eq!(lo, expected);
                assert!(hi > lo);
                expected = hi;
            }
        }
    }

    #[test]
    fn zero_trip_block_loops_yield_an_empty_plan_and_zero_stats() {
        let program = blocked_program(0);
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        assert!(plan.is_empty());
        let machine = MachineConfig::tiny_for_tests();
        let stats = simulate_cache_sharded(&program, &machine, 4).unwrap();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.l1(), CacheStats::default());
        assert_eq!(stats.l2(), CacheStats::default());
    }

    #[test]
    fn a_single_covering_shard_reproduces_the_monolithic_simulation() {
        let machine = MachineConfig::tiny_for_tests();
        for program in [blocked_program(5), flat_program(), multi_nest_program()] {
            let compiled = CompiledProgram::lower(&program).unwrap();
            let plan = ShardPlan::single(&compiled).unwrap();
            assert_eq!(plan.len(), 1, "{}", program.name);
            let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
            let mono = simulate_cache(&program, &machine).unwrap();
            assert_eq!(sharded.accesses(), mono.accesses(), "{}", program.name);
            assert_eq!(sharded.probes(), mono.probes(), "{}", program.name);
            assert_eq!(sharded.l1(), mono.l1(), "{}", program.name);
            assert_eq!(sharded.l2(), mono.l2(), "{}", program.name);
        }
    }

    #[test]
    fn counters_are_bit_identical_at_any_worker_count() {
        let machine = MachineConfig::tiny_for_tests();
        for program in [blocked_program(9), multi_nest_program()] {
            let baseline = simulate_cache_sharded(&program, &machine, 1).unwrap();
            for workers in [0usize, 2, 3, 8] {
                let stats = simulate_cache_sharded(&program, &machine, workers).unwrap();
                assert_eq!(stats, baseline, "{}: workers {workers}", program.name);
            }
        }
    }

    #[test]
    fn sharded_counters_match_the_per_access_oracle_on_ragged_cuts() {
        let machine = MachineConfig::tiny_for_tests();
        let program = blocked_program(10);
        let compiled = CompiledProgram::lower(&program).unwrap();
        // Ragged last shard (3+3+3+1), plus a range clamped past the end.
        let plan = ShardPlan::blocks(vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 3).unwrap();
        let oracle = simulate_cache_sharded_per_access(&compiled, &plan, &machine).unwrap();
        assert_counters_eq(&sharded, &oracle);
        // All accesses are covered exactly once despite the clamped range.
        assert_eq!(
            sharded.accesses(),
            simulate_cache(&program, &machine).unwrap().accesses()
        );
    }

    #[test]
    fn block_disjoint_traces_keep_monolithic_hits_misses_and_loads() {
        // Each block touches its own slab of A and B, so stale lines from
        // earlier blocks behave exactly like a cold replica's empty ways:
        // hits/misses/loads match the monolithic run, only evicts are
        // defined per shard (see the module docs).
        let machine = MachineConfig::tiny_for_tests();
        let program = blocked_program(8);
        let sharded = simulate_cache_sharded(&program, &machine, 2).unwrap();
        let mono = simulate_cache(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), mono.accesses());
        for (sh, mo, level) in [
            (sharded.l1(), mono.l1(), "L1"),
            (sharded.l2(), mono.l2(), "L2"),
        ] {
            assert_eq!(sh.hits, mo.hits, "{level} hits");
            assert_eq!(sh.misses, mo.misses, "{level} misses");
            assert_eq!(sh.loads, mo.loads, "{level} loads");
        }
    }

    #[test]
    fn run_group_windows_agree_with_the_per_access_oracle() {
        let machine = MachineConfig::tiny_for_tests();
        let program = multi_nest_program();
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 3).unwrap();
        let oracle = simulate_cache_sharded_per_access(&compiled, &plan, &machine).unwrap();
        assert_counters_eq(&sharded, &oracle);
        assert_eq!(
            sharded.accesses(),
            simulate_cache_per_access(&program, &machine)
                .unwrap()
                .accesses()
        );
    }

    #[test]
    fn congruent_shards_group_by_translation_phase() {
        // 128 B per trip against the tiny machine's 1 KiB period: 8 classes
        // of 12 shards, represented by the first 8 trips, the first four
        // of size 2.
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&blocked_program(12)).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let sizes = [2, 2, 2, 2, 1, 1, 1, 1];
        assert_eq!(
            congruence_classes(&compiled, &plan, &machine),
            sizes.into_iter().enumerate().collect::<Vec<_>>()
        );
        let (stats, tally) = simulate_cache_sharded_tallied(&compiled, &plan, &machine, 1).unwrap();
        assert_eq!(tally.classes, 8);
        assert_eq!(tally.simulated_accesses, stats.accesses() / 12 * 8);
    }

    #[test]
    fn run_group_plans_and_non_congruent_blocks_keep_one_class_per_shard() {
        let machine = MachineConfig::tiny_for_tests();
        let run_groups = CompiledProgram::lower(&multi_nest_program()).unwrap();
        // `A[b * N + i - 1]` clamps at trip 0, so the blocks stay apart.
        let clamped = CompiledProgram::lower(
            &parse_program(
                "program clamped { param NB = 9; param N = 16; array A[NB * N]; array B[N];
                   for b in 0..NB { for i in 0..N { B[i] = A[b * N + i - 1]; } } }",
            )
            .unwrap(),
        )
        .unwrap();
        for compiled in [run_groups, clamped] {
            let plan = ShardPlan::for_program(&compiled).unwrap();
            let identity: Vec<(usize, u64)> = (0..plan.len()).map(|shard| (shard, 1)).collect();
            assert_eq!(congruence_classes(&compiled, &plan, &machine), identity);
            let (stats, tally) =
                simulate_cache_sharded_tallied(&compiled, &plan, &machine, 1).unwrap();
            assert_eq!(tally.classes, plan.len());
            assert_eq!(tally.simulated_accesses, stats.accesses());
        }
    }

    #[test]
    fn effective_sim_workers_clamps_requests() {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_sim_workers(0, 100), available.min(100));
        assert_eq!(effective_sim_workers(3, 2), 2.min(available));
        assert_eq!(effective_sim_workers(1, 100), 1);
        assert_eq!(effective_sim_workers(usize::MAX, 4), available.min(4));
        assert_eq!(effective_sim_workers(4, 0), 0);
    }

    #[test]
    fn plan_fingerprints_separate_granularity_and_cuts() {
        let a = ShardPlan::blocks(vec![(0, 4)]);
        let b = ShardPlan::run_groups(vec![(0, 4)]);
        let c = ShardPlan::blocks(vec![(0, 2), (2, 4)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            ShardPlan::blocks(vec![(0, 4)]).fingerprint()
        );
    }

    #[test]
    fn worker_panics_are_contained_and_retried() {
        // One poisoned item must not take the fan-out down; the transient
        // panic heals on the sequential retry.
        let flaky = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let results = parallel_map_shards(4, &items, |&x| {
            if x == 7 && flaky.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x * 2
        });
        assert_eq!(results, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }
}
