//! # machine — the execution substrate
//!
//! The paper evaluates schedules by running generated code on an Intel Xeon
//! E5-2680 v3. This reproduction has no LLVM backend, so the crate provides
//! the substitutes:
//!
//! * [`exec`] — the compiled loop-nest execution engine: one lowering (flat
//!   array slots, affine offset/stride plans, closed-form zero-trip and
//!   constant-bound loops) drives both the semantic interpreter and the
//!   trace walker,
//! * [`interp`] — the interpreter over concrete `f64` arrays, used to
//!   verify that normalization and optimization preserve semantics; the
//!   pre-refactor tree walker survives as [`interp::reference`] for
//!   differential tests,
//! * [`cache`] + [`trace`] — a set-associative L1/L2 cache simulator fed by
//!   the exact access stream, reproducing the load/evict counters of the
//!   CLOUDSC case study (Table 1),
//! * [`shard`] — block-sharded parallel cache simulation: the trace cut at
//!   block (outermost independent iterator) granularity, one hierarchy
//!   replica per shard on a worker pool, counters merged order-independently
//!   — bit-identical at any worker count, and the engine behind the full
//!   `NBLOCKS = 4096` CLOUDSC trace figures,
//! * [`cost`] — a cache-aware analytical roofline that converts a scheduled
//!   program into an estimated runtime on the configured machine
//!   ([`config::MachineConfig`]), the quantity all figures compare,
//! * [`blas`] — reference BLAS kernels and the near-peak cost of a library
//!   call, the target of the idiom-detection recipes.
//!
//! # The evaluation stack
//!
//! Every experiment funnels through one hot path:
//!
//! ```text
//! program ─▶ access stream ─▶ cache simulator ─▶ cost model ─▶ search
//!           (trace, streamed)  (cache, flat LRU)   (cost, memoized)  (daisy)
//! ```
//!
//! The stack is streaming *and run-level* end to end.
//! [`trace::stream_accesses`] lowers the program through
//! [`exec::CompiledProgram`] and emits every compiled innermost loop as one
//! lockstep group of [`trace::StrideRun`] segments built straight from the
//! affine offset/stride plans — no trace is ever materialized, and
//! individual addresses exist only for sinks that ask for them. The same
//! lowering executes program semantics
//! ([`exec::CompiledProgram::execute`]), which is what makes paper-sized
//! semantic equivalence checks cheap. [`cache::CacheHierarchy`] consumes
//! whole run groups in *line phases* — O(distinct cache lines touched)
//! instead of O(accesses) — keeping each set's LRU order directly in one
//! flat tag array; its counters are bit-identical to the retained
//! per-access pipeline ([`trace::simulate_cache_per_access`]) and to the
//! naive reference simulator ([`cache::reference`]), both kept for
//! equivalence tests and as the baselines of the paper-size gates.
//!
//! [`cost::CostModel`] memoizes behind structural hashes at two levels:
//! whole-nest costs, and per-computation *run summaries* (the per-iterator
//! stride facts of each access). The contract: a nest's cost is a pure
//! function of *(machine, thread count, program environment, nest
//! structure)* — see the [`cost`] module docs — which is what lets the
//! `daisy` evolutionary search re-price only the nest a candidate recipe
//! rewrote, and re-price outer-loop permutations from cached summaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytic;
pub mod blas;
pub mod cache;
pub mod config;
pub mod cost;
pub mod error;
pub mod exec;
pub mod interp;
pub mod shard;
pub mod trace;

pub use analytic::{estimate_cache, estimate_cache_compiled, AnalyticSink, CacheEstimate};
pub use cache::{reference::ReferenceCacheHierarchy, CacheHierarchy, CacheStats};
pub use config::MachineConfig;
pub use cost::{count_flops, CacheAssessment, CostMode, CostModel, CostReport, NestCost};
pub use error::{MachineError, Result};
pub use exec::CompiledProgram;
pub use interp::{run_seeded, Interpreter, ProgramData};
pub use shard::{
    effective_sim_workers, simulate_cache_sharded, simulate_cache_sharded_per_access,
    simulate_cache_sharded_with_plan, ShardGranularity, ShardPlan, ShardedCacheStats,
};
pub use trace::{
    simulate_cache, simulate_cache_per_access, simulate_cache_reference, stream_accesses,
    walk_accesses, AccessSink, StrideRun, TraceEntry,
};
