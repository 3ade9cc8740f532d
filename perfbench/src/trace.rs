//! The trace workloads: block-sharded exact cache simulation of
//!
//! * `cloudsc_trace` — the four Figure 11 CLOUDSC versions (Fortran, C,
//!   DaCe, daisy) at the paper's full `NBLOCKS = 4096`: unit-stride,
//!   capacity-bound traces cut into 4096 translated block shards;
//! * `polybench_trace` — the 15 PolyBench B variants at `Dataset::Medium`:
//!   strided traces, mostly run-group shard plans, stencil lanes.
//!
//! Every simulation is checked against the retained per-access oracle.

use std::panic::{catch_unwind, AssertUnwindSafe};

use baselines::clang_schedule;
use loop_ir::program::Program;
use machine::{
    simulate_cache_sharded, simulate_cache_sharded_per_access, simulate_cache_sharded_with_plan,
    CompiledProgram, CostModel, MachineConfig, ShardGranularity, ShardPlan, ShardedCacheStats,
};
use normalize::Normalizer;
use polybench::cloudsc::CloudscSizes;
use polybench::{all_benchmarks, Dataset};

use crate::harness::{
    available_threads, mix, peak_rss_mb, timed, Options, Outcome, Phase, Sample, SetupTimes,
    WorkDir,
};
use crate::layers::{self, is_blocks};
use crate::metrics::{json_num, json_str};
use crate::stats::geomean;

/// The block count of the paper's full CLOUDSC traces.
pub const CLOUDSC_NBLOCKS: i64 = 4096;

/// Inputs with at most this many accesses are checked against the
/// per-access oracle in full; larger ones on a seeded sample of shards.
pub const FULL_CHECK_ACCESSES: u64 = 20_000_000;

/// Shards sampled per input for the oracle check, by plan granularity:
/// block shards are small, run-group windows are a sixteenth of a trace.
pub const SAMPLED_BLOCK_SHARDS: usize = 16;
pub const SAMPLED_RUN_GROUP_SHARDS: usize = 2;

/// Which trace workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Cloudsc,
    Polybench,
}

/// The simulated inputs of a workload, with labels.
pub fn inputs(kind: TraceKind) -> Vec<(String, Program)> {
    match kind {
        // The daisy version is DaCe normalized, then producer-consumer
        // fused (Section 5.1).
        TraceKind::Cloudsc => bench::figures::cloudsc_versions(CloudscSizes {
            nblocks: CLOUDSC_NBLOCKS,
            ..CloudscSizes::paper()
        })
        .into_iter()
        .map(|(label, p)| (label.to_string(), p))
        .collect(),
        TraceKind::Polybench => all_benchmarks()
            .iter()
            .map(|b| (format!("{}/B", b.name), (b.b)(Dataset::Medium)))
            .collect(),
    }
}

/// The modeled (roofline, one thread) quality figure of a workload:
/// Fortran / daisy seconds for CLOUDSC (Figure 11), and for PolyBench the
/// geo-mean over B variants of clang / (normalize, then clang) seconds,
/// the "Norm B" arm of Figure 7.
pub fn model_speedup(kind: TraceKind, programs: &[(String, Program)]) -> f64 {
    let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 1);
    let seconds = |p: &Program| model.estimate(p).seconds;
    match kind {
        TraceKind::Cloudsc => seconds(&programs[0].1) / seconds(&programs[3].1),
        TraceKind::Polybench => geomean(
            &programs
                .iter()
                .map(|(_, p)| {
                    let normalized = Normalizer::new().run(p).expect("normalizes").program;
                    seconds(&clang_schedule(p)) / seconds(&clang_schedule(&normalized))
                })
                .collect::<Vec<_>>(),
        ),
    }
}

/// Picks `count` distinct shard indices of `0..len` from a seeded stream.
pub fn sample_shards(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    let mut stream = 0u64;
    while picked.len() < count.min(len) {
        let candidate = (mix(seed, stream) % len as u64) as usize;
        stream += 1;
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked.sort_unstable();
    picked
}

/// Checks one input's timed result against the per-access oracle: in full
/// for small traces, otherwise on seeded sample shards simulated by both
/// the fast path and the oracle.
pub fn check_against_oracle(
    program: &Program,
    stats: &ShardedCacheStats,
    machine: &MachineConfig,
    seed: u64,
) -> Result<(), String> {
    let compiled = CompiledProgram::lower(program).map_err(|e| e.to_string())?;
    let plan = ShardPlan::for_program(&compiled).map_err(|e| e.to_string())?;
    if plan.len() != stats.shards() {
        return Err(format!(
            "plan has {} shards, the simulation {}",
            plan.len(),
            stats.shards()
        ));
    }
    if stats.accesses() <= FULL_CHECK_ACCESSES {
        let oracle = simulate_cache_sharded_per_access(&compiled, &plan, machine)
            .map_err(|e| e.to_string())?;
        if (oracle.accesses(), oracle.l1(), oracle.l2())
            != (stats.accesses(), stats.l1(), stats.l2())
        {
            return Err("counters differ from the per-access oracle".to_string());
        }
        return Ok(());
    }
    let count = match plan.granularity() {
        ShardGranularity::Blocks => SAMPLED_BLOCK_SHARDS,
        ShardGranularity::RunGroups => SAMPLED_RUN_GROUP_SHARDS,
    };
    let cuts: Vec<(u64, u64)> = sample_shards(plan.len(), count, seed)
        .into_iter()
        .map(|i| plan.shards()[i])
        .collect();
    let sample = match plan.granularity() {
        ShardGranularity::Blocks => ShardPlan::blocks(cuts),
        ShardGranularity::RunGroups => ShardPlan::run_groups(cuts),
    };
    let fast = simulate_cache_sharded_with_plan(&compiled, &sample, machine, 0)
        .map_err(|e| e.to_string())?;
    let oracle = simulate_cache_sharded_per_access(&compiled, &sample, machine)
        .map_err(|e| e.to_string())?;
    if (fast.accesses(), fast.l1(), fast.l2()) != (oracle.accesses(), oracle.l1(), oracle.l2()) {
        return Err(format!(
            "sampled shards {:?} differ from the per-access oracle",
            sample.shards()
        ));
    }
    Ok(())
}

/// Per-run bookkeeping: the first round's counters of every input (later
/// rounds must reproduce them) and the failed simulations.
#[derive(Default)]
struct Replay {
    first: Vec<Option<ShardedCacheStats>>,
    failed_items: Vec<u64>,
    problems: Vec<String>,
    attempted: u64,
}

impl Replay {
    fn round(
        &mut self,
        programs: &[(String, Program)],
        machine: &MachineConfig,
        samples: &mut Vec<Sample>,
    ) {
        self.first.resize(programs.len(), None);
        self.failed_items.resize(programs.len(), 0);
        for (i, (label, p)) in programs.iter().enumerate() {
            let (result, sample) = timed(i, || {
                catch_unwind(AssertUnwindSafe(|| simulate_cache_sharded(p, machine, 0)))
            });
            samples.push(sample);
            self.attempted += 1;
            let stats = match result {
                Ok(Ok(stats)) => stats,
                Ok(Err(e)) => {
                    self.failed_items[i] += 1;
                    self.problems
                        .push(format!("{label}: simulation failed: {e}"));
                    continue;
                }
                Err(_) => {
                    self.failed_items[i] += 1;
                    self.problems.push(format!("{label}: simulation panicked"));
                    continue;
                }
            };
            match &self.first[i] {
                None => self.first[i] = Some(stats),
                Some(first) if *first != stats => {
                    self.failed_items[i] += 1;
                    self.problems
                        .push(format!("{label}: counters differ from the first round"));
                }
                Some(_) => {}
            }
        }
    }
}

pub fn run(kind: TraceKind, options: &Options, work: &WorkDir) -> Outcome {
    // Set-up builds the inputs and their modeled quality figure.
    let setup = || {
        let programs = inputs(kind);
        let speedup = model_speedup(kind, &programs);
        (programs, speedup)
    };
    let mut setup_times = SetupTimes::default();
    let (programs, speedup) = setup_times.batch(setup);
    let machine = MachineConfig::xeon_e5_2680v3();
    let mut replay = Replay::default();
    let untraced = Phase::run(options.seconds, |samples| {
        replay.round(&programs, &machine, samples)
    });
    let traced = options.trace.then(|| {
        layers::recorded(|| {
            Phase::run(options.seconds, |samples| {
                replay.round(&programs, &machine, samples)
            })
        })
    });

    let mut out = Outcome {
        attempted: replay.attempted,
        failed: replay.failed_items.iter().sum(),
        ..Outcome::default()
    };
    out.problems.append(&mut replay.problems);
    let mut calls = vec![0u64; programs.len()];
    for s in untraced
        .samples
        .iter()
        .chain(traced.iter().flat_map(|(p, _)| &p.samples))
    {
        calls[s.item] += 1;
    }
    for (i, (label, p)) in programs.iter().enumerate() {
        let Some(stats) = &replay.first[i] else {
            continue;
        };
        if let Err(e) = check_against_oracle(p, stats, &machine, mix(options.seed, i as u64)) {
            // Every simulation of this input counts as failed, less those
            // already counted.
            out.fail(calls[i] - replay.failed_items[i], format!("{label}: {e}"));
        }
    }

    let medians = untraced.per_item_median_ms(programs.len());
    let stats: Vec<ShardedCacheStats> = replay.first.iter().flatten().cloned().collect();
    let m = &mut out.metrics;
    drop(setup_times.batch(setup));
    m.set("setup_s", setup_times.median_s());
    untraced.record(m);
    m.set("model_speedup_geomean", speedup);
    if let Some((phase, _)) = &traced {
        phase.record_overhead(&untraced, m);
        let just_programs: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
        layers::front_layers(&just_programs, &machine, m);
        layers::sim_layers(&just_programs, &stats, &medians, &machine, m);
        let (dataset, groups) = match kind {
            // One group: the four versions of one computation.
            TraceKind::Cloudsc => (Dataset::Large, vec![just_programs.clone()]),
            TraceKind::Polybench => (
                Dataset::Medium,
                all_benchmarks()
                    .iter()
                    .map(|b| vec![(b.a)(Dataset::Medium), (b.b)(Dataset::Medium)])
                    .collect(),
            ),
        };
        let store = work.path.join("daisy-full.tunedb");
        if let Some(problem) = layers::schedule_pass(dataset, &groups, &store, m) {
            out.problems.push(problem);
        }
        // Every input is distinct: nothing repeats within a round.
        m.set("normalize.repeat_share", 0.0);
    }
    m.set("peak_rss_mb", peak_rss_mb());

    let accesses: u64 = stats.iter().map(|s| s.accesses()).sum();
    let block_accesses: u64 = stats
        .iter()
        .filter(|s| is_blocks(s))
        .map(|s| s.accesses())
        .sum();
    let hit_rates: Vec<f64> = stats.iter().map(|s| s.l1().hit_rate()).collect();
    let total_ms: f64 = medians.iter().sum();
    let rows: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, (label, _))| match &replay.first[i] {
            Some(f) => format!(
                "{{\"input\": {}, \"median_ms\": {}, \"accesses\": {}, \"shards\": {}, \"plan\": {}, \"l1_hit_rate\": {}, \"l2_hit_rate\": {}}}",
                json_str(label),
                json_num(medians[i]),
                f.accesses(),
                f.shards(),
                json_str(if is_blocks(f) { "blocks" } else { "run_groups" }),
                json_num(f.l1().hit_rate()),
                json_num(f.l2().hit_rate())
            ),
            None => format!("{{\"input\": {}, \"failed\": true}}", json_str(label)),
        })
        .collect();
    let max_shards = stats.iter().map(|s| s.shards()).max().unwrap_or(0);
    let wall = untraced.wall();
    let named_speedup = match kind {
        TraceKind::Cloudsc => "cloudsc_speedup_vs_fortran",
        TraceKind::Polybench => "norm_speedup_vs_clang_geomean",
    };
    out.report = vec![
        ("untraced", untraced.summary_json()),
        (
            "census",
            format!(
                "{{\"inputs\": {}, \"accesses_per_round\": {}, \"block_plan_access_share\": {}, \"run_group_plan_access_share\": {}, \"l1_hit_rate_min\": {}, \"l1_hit_rate_max\": {}}}",
                programs.len(),
                accesses,
                json_num(block_accesses as f64 / accesses.max(1) as f64),
                json_num((accesses - block_accesses) as f64 / accesses.max(1) as f64),
                json_num(hit_rates.iter().copied().fold(f64::INFINITY, f64::min)),
                json_num(hit_rates.iter().copied().fold(0.0, f64::max))
            ),
        ),
        (
            "workers",
            format!(
                "{{\"scheduler\": {}, \"simulation\": {}}}",
                available_threads(),
                machine::effective_sim_workers(0, max_shards)
            ),
        ),
        (
            "named",
            format!(
                "{{\"sim_macc_per_s\": {}, \"sim_p50_ms\": {}, \"sim_tail_ms\": {}, \"sim_tail_percentile\": {}, \"{named_speedup}\": {}}}",
                json_num(accesses as f64 / 1e6 / (total_ms / 1e3)),
                json_num(wall.p50_ms),
                json_num(wall.tail_ms),
                json_num(wall.tail_percentile),
                json_num(speedup)
            ),
        ),
        ("rows", format!("[{}]", rows.join(", "))),
    ];
    if let Some((phase, _)) = &traced {
        out.report.push(("traced", phase.summary_json()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_samples_are_distinct_sorted_and_seeded() {
        let a = sample_shards(4096, 16, 9);
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 4096));
        assert_eq!(a, sample_shards(4096, 16, 9));
        assert_ne!(a, sample_shards(4096, 16, 10));
        assert_eq!(sample_shards(3, 16, 1), vec![0, 1, 2]);
    }

    #[test]
    fn inputs_and_modeled_speedups_are_deterministic() {
        for kind in [TraceKind::Cloudsc, TraceKind::Polybench] {
            let programs = inputs(kind);
            assert_eq!(programs, inputs(kind));
            let speedup = model_speedup(kind, &programs);
            assert_eq!(speedup.to_bits(), model_speedup(kind, &programs).to_bits());
            assert!(speedup > 0.0);
        }
    }

    #[test]
    fn the_oracle_check_accepts_true_counters_and_rejects_false_ones() {
        let machine = MachineConfig::xeon_e5_2680v3();
        let p = (all_benchmarks()[2].b)(Dataset::Mini);
        let stats = simulate_cache_sharded(&p, &machine, 0).unwrap();
        assert_eq!(check_against_oracle(&p, &stats, &machine, 1), Ok(()));
        // Counters of another program of the same shape do not pass.
        let other = (all_benchmarks()[3].b)(Dataset::Mini);
        let wrong = simulate_cache_sharded(&other, &machine, 0).unwrap();
        assert_eq!(wrong.shards(), stats.shards());
        assert!(check_against_oracle(&p, &wrong, &machine, 1).is_err());
    }
}
