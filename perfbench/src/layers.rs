//! The traced layer pass: the benchmark's own spans around calls into each
//! crate's public functions, run once over a workload's distinct inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use daisy::scheduler::PhaseTimings;
use daisy::{DaisyConfig, DaisyScheduler, ScheduleOutcome};
use loop_ir::program::Program;
use machine::{
    estimate_cache_compiled, simulate_cache_sharded_with_plan, AccessSink, CacheStats,
    CompiledProgram, CostModel, MachineConfig, ShardGranularity, ShardPlan, ShardedCacheStats,
    StrideRun, TraceEntry,
};
use normalize::Normalizer;
use polybench::{all_benchmarks, Dataset};
use telemetry::{AggregatingRecorder, Profile};

use crate::metrics::Metrics;
use crate::stats::{geomean, ratio};

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` with an [`AggregatingRecorder`] installed and returns the
/// counters it collected. Telemetry stays off everywhere else.
pub fn recorded<R>(f: impl FnOnce() -> R) -> (R, Profile) {
    let recorder = Arc::new(AggregatingRecorder::default());
    let value = telemetry::with_recorder(recorder.clone(), f);
    (value, recorder.profile("perfbench"))
}

/// A counter total from a profile (0 when it never fired).
pub fn counter(profile: &Profile, name: &str) -> f64 {
    profile.counters.get(name).copied().unwrap_or(0) as f64
}

/// Normalization, dependence analysis, producer-consumer fusion and a cold
/// cost estimate of every input.
pub fn front_layers(programs: &[Program], machine: &MachineConfig, metrics: &mut Metrics) {
    let (mut normalize_ms, mut analyze_ms, mut fuse_ms, mut estimate_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut nests_out = 0usize;
    for p in programs {
        let start = Instant::now();
        let normalized = Normalizer::new().run(p).expect("inputs normalize").program;
        normalize_ms += ms_since(start);
        nests_out += normalized.loop_nests().len();

        let start = Instant::now();
        std::hint::black_box(dependence::analyze(&normalized));
        analyze_ms += ms_since(start);

        let start = Instant::now();
        std::hint::black_box(transforms::fuse_producer_consumers(&normalized));
        fuse_ms += ms_since(start);

        // A fresh model per input, so every estimate starts from an empty
        // memo.
        let model = CostModel::new(machine.clone(), DaisyConfig::default().threads);
        let start = Instant::now();
        std::hint::black_box(model.estimate(p));
        estimate_ms += ms_since(start);
    }
    metrics.set("normalize.run_ms", normalize_ms);
    metrics.set("normalize.nests_out", nests_out as f64);
    metrics.set("dependence.analyze_ms", analyze_ms);
    metrics.set("transforms.fuse_ms", fuse_ms);
    metrics.set(
        "machine.cost.estimate_us",
        estimate_ms * 1e3 / programs.len().max(1) as f64,
    );
}

/// Counts streamed accesses without simulating them, so streaming is timed
/// apart from the cache model.
struct CountingSink {
    accesses: u64,
}

impl AccessSink for CountingSink {
    fn access(&mut self, _entry: TraceEntry) {
        self.accesses += 1;
    }

    fn run(&mut self, _start: u64, _stride: i64, count: u64, _is_write: bool) {
        self.accesses += count;
    }

    fn run_group(&mut self, runs: &[StrideRun]) {
        self.accesses += runs.first().map_or(0, |r| r.count) * runs.len() as u64;
    }
}

/// Whether a simulation ran under a block-granularity shard plan.
pub fn is_blocks(stats: &ShardedCacheStats) -> bool {
    stats.granularity() == ShardGranularity::Blocks
}

/// Lowering, shard planning, trace streaming, one-worker simulation and
/// the analytic estimate of every input, plus the cache counters. `stats`
/// and `default_ms` are the exact results and median times of the timed
/// default-worker simulations, in input order.
pub fn sim_layers(
    programs: &[Program],
    stats: &[ShardedCacheStats],
    default_ms: &[f64],
    machine: &MachineConfig,
    metrics: &mut Metrics,
) {
    let (mut lower_ms, mut plan_ms, mut stream_ms, mut one_ms, mut analytic_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut streamed, mut error_bound) = (0u64, 0u64);
    for p in programs {
        let start = Instant::now();
        let compiled = CompiledProgram::lower(p).expect("inputs lower");
        lower_ms += ms_since(start);

        let start = Instant::now();
        let plan = ShardPlan::for_program(&compiled).expect("inputs plan");
        plan_ms += ms_since(start);

        let mut sink = CountingSink { accesses: 0 };
        let start = Instant::now();
        compiled.stream(&mut sink).expect("inputs stream");
        stream_ms += ms_since(start);
        streamed += sink.accesses;

        let start = Instant::now();
        std::hint::black_box(
            simulate_cache_sharded_with_plan(&compiled, &plan, machine, 1)
                .expect("inputs simulate"),
        );
        one_ms += ms_since(start);

        let start = Instant::now();
        let estimate = estimate_cache_compiled(&compiled, machine).expect("inputs estimate");
        analytic_ms += ms_since(start);
        error_bound += estimate.error_bound;
    }
    let accesses: u64 = stats.iter().map(|s| s.accesses()).sum();
    let block_accesses: u64 = stats
        .iter()
        .filter(|s| is_blocks(s))
        .map(|s| s.accesses())
        .sum();
    let exact_ms: f64 = default_ms.iter().sum();
    let (mut l1, mut l2) = (CacheStats::default(), CacheStats::default());
    for s in stats {
        l1.merge(&s.l1());
        l2.merge(&s.l2());
    }
    let macc_per_s = |ms: f64| ratio(accesses as f64 / 1e6, ms / 1e3);
    metrics.set("machine.exec.lower_ms", lower_ms);
    metrics.set(
        "machine.exec.stream_macc_per_s",
        ratio(streamed as f64 / 1e6, stream_ms / 1e3),
    );
    metrics.set("machine.shard.plan_ms", plan_ms);
    metrics.set(
        "machine.shard.shards",
        stats.iter().map(|s| s.shards()).sum::<usize>() as f64,
    );
    metrics.set(
        "machine.shard.block_access_share",
        ratio(block_accesses as f64, accesses as f64),
    );
    metrics.set("machine.shard.one_worker_macc_per_s", macc_per_s(one_ms));
    metrics.set("machine.shard.parallel_speedup", ratio(one_ms, exact_ms));
    metrics.set("machine.cache.sim_macc_per_s", macc_per_s(exact_ms));
    metrics.set(
        "machine.cache.probes_per_access",
        ratio(
            stats.iter().map(|s| s.probes()).sum::<u64>() as f64,
            accesses as f64,
        ),
    );
    metrics.set("machine.cache.l1_hit_rate", l1.hit_rate());
    metrics.set("machine.cache.l2_hit_rate", l2.hit_rate());
    metrics.set("machine.analytic.estimate_ms", analytic_ms);
    metrics.set(
        "machine.analytic.speedup_vs_exact",
        ratio(exact_ms, analytic_ms),
    );
    metrics.set(
        "machine.analytic.error_bound_share",
        ratio(error_bound as f64, accesses as f64),
    );
}

/// A scheduler seeded cold from the A variants at `dataset`, persisted to
/// `store` and warm-started back, with the time of each step. The warm
/// database must equal the cold one.
pub struct SeededScheduler {
    pub cold: DaisyScheduler,
    pub seed_s: f64,
    pub persist_ms: f64,
    pub warm_start_ms: f64,
    /// Candidates generated and distinct rewrites priced by the seeding
    /// search, when seeding was recorded.
    pub search_candidates: f64,
    pub search_rewrites_priced: f64,
    /// Why the warm start did not reproduce the cold database, if it did not.
    pub warm_mismatch: Option<String>,
}

impl SeededScheduler {
    /// Seeds, persists and warm-starts; with `record` set, the seeding runs
    /// under a recorder so its search counters are kept.
    pub fn build(
        dataset: Dataset,
        config: DaisyConfig,
        store: &Path,
        record: bool,
    ) -> SeededScheduler {
        let a_variants: Vec<Program> = all_benchmarks().iter().map(|b| (b.a)(dataset)).collect();
        let mut cold = DaisyScheduler::new(config.clone());
        let seed = |cold: &mut DaisyScheduler| {
            let start = Instant::now();
            cold.seed_from_programs(&a_variants);
            start.elapsed().as_secs_f64()
        };
        let (seed_s, profile) = if record {
            recorded(|| seed(&mut cold))
        } else {
            (seed(&mut cold), Profile::default())
        };

        let start = Instant::now();
        let persisted = cold.persist(store);
        let persist_ms = ms_since(start);

        let mut warm = DaisyScheduler::new(config);
        let start = Instant::now();
        let loaded = warm.warm_start(store);
        let warm_start_ms = ms_since(start);

        let warm_mismatch = match (persisted, loaded) {
            (Err(e), _) => Some(format!("persist to {} failed: {e}", store.display())),
            (_, Err(e)) => Some(format!("warm start from {} failed: {e}", store.display())),
            _ if warm.database().entries() != cold.database().entries() => {
                Some("warm-started database differs from the cold one".to_string())
            }
            _ => None,
        };
        SeededScheduler {
            cold,
            seed_s,
            persist_ms,
            warm_start_ms,
            search_candidates: counter(&profile, "daisy.search.candidates"),
            search_rewrites_priced: counter(&profile, "daisy.search.rewrites_priced"),
            warm_mismatch,
        }
    }
}

/// Adds one call's phase split to a running sum.
pub fn add_phases(sum: &mut PhaseTimings, t: &PhaseTimings) {
    sum.normalize_ns += t.normalize_ns;
    sum.seed_ns += t.seed_ns;
    sum.search_ns += t.search_ns;
    sum.cost_ns += t.cost_ns;
}

/// Records the scheduling metrics: phase sums and plan counters divided by
/// `rounds`, from a profile recorded over those rounds.
pub fn record_schedule_layers(
    phases: &PhaseTimings,
    profile: &Profile,
    rounds: usize,
    metrics: &mut Metrics,
) {
    let per_round = |v: f64| v / rounds.max(1) as f64;
    let ms = |ns: u64| per_round(ns as f64 / 1e6);
    metrics.set("daisy.normalize_ms", ms(phases.normalize_ns));
    metrics.set("daisy.seed_ms", ms(phases.seed_ns));
    metrics.set("daisy.search_ms", ms(phases.search_ns));
    metrics.set("daisy.cost_ms", ms(phases.cost_ns));
    for name in [
        "daisy.plan.candidates_priced",
        "daisy.plan.exact_hits",
        "daisy.plan.idiom_hits",
        "daisy.plan.unoptimized",
    ] {
        metrics.set(name, per_round(counter(profile, name)));
    }
    let hits =
        counter(profile, "daisy.plan.exact_hits") + counter(profile, "daisy.plan.idiom_hits");
    // Every planned loop nest ends as an idiom call, an applied recipe or
    // unoptimized.
    let nests = counter(profile, "daisy.plan.idiom_hits")
        + counter(profile, "daisy.plan.recipes_applied")
        + counter(profile, "daisy.plan.unoptimized");
    metrics.set("daisy.transfer_hit_ratio", ratio(hits, nests));
    let memo_hits = counter(profile, "machine.cost.memo_hits");
    metrics.set(
        "machine.cost.memo_hit_ratio",
        ratio(
            memo_hits,
            memo_hits + counter(profile, "machine.cost.memo_misses"),
        ),
    );
}

/// Records the seeding and store metrics of [`SeededScheduler`] builds,
/// summed over `seeded`.
pub fn record_store_layers(seeded: &[&SeededScheduler], metrics: &mut Metrics) {
    let sum = |f: fn(&SeededScheduler) -> f64| seeded.iter().map(|s| f(s)).sum::<f64>();
    metrics.set("daisy.seed_from_programs_s", sum(|s| s.seed_s));
    metrics.set("daisy.search.candidates", sum(|s| s.search_candidates));
    metrics.set(
        "daisy.search.rewrites_priced",
        sum(|s| s.search_rewrites_priced),
    );
    metrics.set("tunestore.persist_ms", sum(|s| s.persist_ms));
    metrics.set("tunestore.warm_start_ms", sum(|s| s.warm_start_ms));
}

/// Geo-mean over groups of the slowest / fastest modeled outcome within
/// each group: how far differently written versions of one computation
/// stay apart after scheduling.
pub fn variant_spread(groups: &[Vec<&ScheduleOutcome>]) -> f64 {
    let spreads: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let seconds: Vec<f64> = g.iter().map(|o| o.seconds()).collect();
            let max = seconds.iter().copied().fold(f64::MIN, f64::max);
            let min = seconds.iter().copied().fold(f64::MAX, f64::min);
            max / min
        })
        .collect();
    geomean(&spreads)
}

/// The trace workloads' scheduling pass: seeds a scheduler at `dataset`,
/// round-trips it through a store, and schedules `groups` of
/// differently written versions of one computation once each.
pub fn schedule_pass(
    dataset: Dataset,
    groups: &[Vec<Program>],
    store: &Path,
    metrics: &mut Metrics,
) -> Option<String> {
    let seeded = SeededScheduler::build(dataset, DaisyConfig::default(), store, true);
    record_store_layers(&[&seeded], metrics);
    let scheduler = &seeded.cold;
    let mut phases = PhaseTimings::default();
    let (outcomes, profile) = recorded(|| {
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|p| {
                        let outcome = scheduler.schedule(p);
                        add_phases(&mut phases, &outcome.phase_timings);
                        outcome
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    record_schedule_layers(&phases, &profile, 1, metrics);
    let refs: Vec<Vec<&ScheduleOutcome>> = outcomes.iter().map(|g| g.iter().collect()).collect();
    metrics.set("daisy.variant_spread_geomean", variant_spread(&refs));
    seeded.warm_mismatch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_every_access_of_a_group() {
        let mut sink = CountingSink { accesses: 0 };
        let run = StrideRun {
            base: 0,
            stride: 8,
            count: 5,
            array: 0,
            is_write: false,
        };
        sink.run_group(&[run, run, run]);
        sink.run(0, 8, 4, true);
        sink.access(TraceEntry {
            address: 0,
            is_write: false,
        });
        assert_eq!(sink.accesses, 15 + 4 + 1);
    }

    #[test]
    fn counting_sink_agrees_with_the_streamer() {
        let p = (all_benchmarks()[0].b)(Dataset::Mini);
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut sink = CountingSink { accesses: 0 };
        let total = compiled.stream(&mut sink).unwrap();
        assert_eq!(sink.accesses, total);
        let stats =
            machine::simulate_cache_sharded(&p, &MachineConfig::xeon_e5_2680v3(), 1).unwrap();
        assert_eq!(sink.accesses, stats.accesses());
    }
}
