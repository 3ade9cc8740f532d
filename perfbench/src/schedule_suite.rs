//! `schedule_suite`: the scheduling traffic of one paper-size `reproduce`
//! (Figures 6, 7 and 9: A, B and Python variants at `Dataset::Large`)
//! plus one seeded random B variant per benchmark, replayed on the cold
//! seeded `full` and `nonorm` schedulers. No cache simulation runs here.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use baselines::clang_schedule;
use bench::figures::SchedulerKind;
use daisy::scheduler::PhaseTimings;
use daisy::ScheduleOutcome;
use loop_ir::program::Program;
use machine::{run_seeded, simulate_cache_sharded, CostModel, MachineConfig};
use polybench::{all_benchmarks, random_b_variant, Benchmark, Dataset};

use crate::harness::{
    mix, peak_rss_mb, timed, Options, Outcome, Phase, Sample, SetupTimes, WorkDir,
};
use crate::layers::{self, SeededScheduler};
use crate::metrics::{json_num, json_str};
use crate::stats::geomean;

/// The structural family of one input program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    A,
    B,
    Py,
    /// `random_b_variant` of the A variant under a seed drawn from the
    /// workload seed.
    R,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::A => "A",
            Family::B => "B",
            Family::Py => "Py",
            Family::R => "R",
        }
    }
}

/// The seed of benchmark `bench`'s random variant.
pub fn variant_seed(seed: u64, bench: usize) -> u64 {
    mix(seed, bench as u64)
}

/// Builds one benchmark's input of a family at a dataset.
pub fn build(b: &Benchmark, family: Family, dataset: Dataset, r_seed: u64) -> Program {
    match family {
        Family::A => (b.a)(dataset),
        Family::B => (b.b)(dataset),
        Family::Py => (b.py)(dataset).0,
        Family::R => random_b_variant(&(b.a)(dataset), r_seed),
    }
}

/// One distinct `schedule` input: a scheduler configuration and a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub kind: SchedulerKind,
    pub bench: usize,
    pub family: Family,
}

/// The calls of one round, in replay order: Figure 6 (full: A, B), Figure
/// 7 (nonorm: A, B; full: A, B), Figure 9 (full: Py; nonorm: Py), then the
/// random variants under both configurations.
pub fn call_list(benchmarks: usize) -> Vec<Key> {
    use Family::{Py, A, B, R};
    use SchedulerKind::{Full, NoNormalize};
    let mut calls = Vec::new();
    let mut figure = |steps: &[(SchedulerKind, Family)]| {
        for bench in 0..benchmarks {
            for &(kind, family) in steps {
                calls.push(Key {
                    kind,
                    bench,
                    family,
                });
            }
        }
    };
    figure(&[(Full, A), (Full, B)]);
    figure(&[(NoNormalize, A), (NoNormalize, B), (Full, A), (Full, B)]);
    figure(&[(Full, Py), (NoNormalize, Py)]);
    figure(&[(Full, R), (NoNormalize, R)]);
    calls
}

/// Everything set-up builds: the inputs and both seeded schedulers.
struct Suite {
    benchmarks: Vec<Benchmark>,
    /// Distinct keys in first-call order, and each call's key index.
    keys: Vec<Key>,
    calls: Vec<usize>,
    /// Inputs by (bench, family).
    programs: HashMap<(usize, Family), Program>,
    full: SeededScheduler,
    nonorm: SeededScheduler,
}

impl Suite {
    fn setup(dataset: Dataset, seed: u64, work: &WorkDir, record: bool) -> Suite {
        let benchmarks = all_benchmarks();
        let calls_by_key = call_list(benchmarks.len());
        let mut keys: Vec<Key> = Vec::new();
        let mut calls = Vec::with_capacity(calls_by_key.len());
        for key in &calls_by_key {
            let index = keys.iter().position(|k| k == key).unwrap_or_else(|| {
                keys.push(*key);
                keys.len() - 1
            });
            calls.push(index);
        }
        let mut programs = HashMap::new();
        for key in &keys {
            programs.entry((key.bench, key.family)).or_insert_with(|| {
                let b = &benchmarks[key.bench];
                build(b, key.family, dataset, variant_seed(seed, key.bench))
            });
        }
        let seeded = |kind: SchedulerKind| {
            let store = work.path.join(format!("daisy-{}.tunedb", kind.stem()));
            SeededScheduler::build(dataset, kind.config(), &store, record)
        };
        Suite {
            full: seeded(SchedulerKind::Full),
            nonorm: seeded(SchedulerKind::NoNormalize),
            benchmarks,
            keys,
            calls,
            programs,
        }
    }

    fn scheduler(&self, kind: SchedulerKind) -> &daisy::DaisyScheduler {
        match kind {
            SchedulerKind::Full => &self.full.cold,
            SchedulerKind::NoNormalize => &self.nonorm.cold,
        }
    }

    fn program(&self, key: &Key) -> &Program {
        &self.programs[&(key.bench, key.family)]
    }

    fn label(&self, key: &Key) -> String {
        format!(
            "{}:{}/{}",
            key.kind.stem(),
            self.benchmarks[key.bench].name,
            key.family.label()
        )
    }
}

/// Per-run bookkeeping of the timed calls: the first outcome of every key
/// (later rounds must reproduce it) and the calls that failed.
#[derive(Default)]
struct Replay {
    first: HashMap<usize, ScheduleOutcome>,
    /// Failed calls per key.
    failed: HashMap<usize, u64>,
    problems: Vec<String>,
    attempted: u64,
    phases: PhaseTimings,
}

impl Replay {
    fn round(&mut self, suite: &Suite, samples: &mut Vec<Sample>) {
        for &key_index in &suite.calls {
            let key = &suite.keys[key_index];
            let scheduler = suite.scheduler(key.kind);
            let program = suite.program(key);
            let (result, sample) = timed(key_index, || {
                catch_unwind(AssertUnwindSafe(|| scheduler.schedule(program)))
            });
            samples.push(sample);
            self.attempted += 1;
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(_) => {
                    *self.failed.entry(key_index).or_default() += 1;
                    self.problems
                        .push(format!("{}: schedule panicked", suite.label(key)));
                    continue;
                }
            };
            layers::add_phases(&mut self.phases, &outcome.phase_timings);
            match self.first.get(&key_index) {
                None => {
                    self.first.insert(key_index, outcome);
                }
                Some(first) if *first != outcome => {
                    *self.failed.entry(key_index).or_default() += 1;
                    self.problems.push(format!(
                        "{}: outcome differs from the first round",
                        suite.label(key)
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

/// Checks one key on its `Dataset::Mini` twin: schedules the twin with the
/// same scheduler and compares every output array of the original and the
/// scheduled program under seeded data.
fn check_twin(suite: &Suite, key: &Key, seed: u64) -> Result<(), String> {
    let b = &suite.benchmarks[key.bench];
    let twin = build(b, key.family, Dataset::Mini, variant_seed(seed, key.bench));
    let scheduler = suite.scheduler(key.kind);
    let scheduled = catch_unwind(AssertUnwindSafe(|| scheduler.schedule(&twin)))
        .map_err(|_| "scheduling the Mini twin panicked".to_string())?;
    let before = run_seeded(&twin).map_err(|e| format!("Mini twin fails to run: {e}"))?;
    let after =
        run_seeded(&scheduled.program).map_err(|e| format!("scheduled twin fails to run: {e}"))?;
    for array in b.outputs {
        let diff = before
            .max_abs_diff(&after, array)
            .ok_or_else(|| format!("output {array} missing or reshaped"))?;
        if diff.is_nan() || diff >= 1e-9 {
            return Err(format!("output {array} differs by {diff}"));
        }
    }
    Ok(())
}

/// The modeled quality of one round's `full` calls (deterministic): the
/// geo-mean over calls of clang / daisy modeled seconds under the
/// scheduler's own cost model, and the variant spread over each
/// benchmark's A, B, Py and R outcomes.
fn quality(suite: &Suite, first: &HashMap<usize, ScheduleOutcome>) -> (f64, f64) {
    let full = SchedulerKind::Full.config();
    let model = CostModel::new(full.machine.clone(), full.threads);
    let mut speedups = Vec::new();
    for &i in &suite.calls {
        let key = &suite.keys[i];
        if key.kind == SchedulerKind::Full {
            if let Some(o) = first.get(&i) {
                let clang = model.estimate(&clang_schedule(suite.program(key))).seconds;
                speedups.push(clang / o.seconds());
            }
        }
    }
    let groups: Vec<Vec<&ScheduleOutcome>> = (0..suite.benchmarks.len())
        .map(|bench| {
            suite
                .keys
                .iter()
                .enumerate()
                .filter(|(_, k)| k.kind == SchedulerKind::Full && k.bench == bench)
                .filter_map(|(i, _)| first.get(&i))
                .collect()
        })
        .collect();
    (geomean(&speedups), layers::variant_spread(&groups))
}

pub fn run(options: &Options, work: &WorkDir) -> Outcome {
    let setup = || Suite::setup(Dataset::Large, options.seed, work, options.trace);
    let mut setup_times = SetupTimes::default();
    let suite = setup_times.batch(setup);
    let mut out = Outcome::default();
    for seeded in [&suite.full, &suite.nonorm] {
        if let Some(problem) = &seeded.warm_mismatch {
            out.problems.push(problem.clone());
        }
    }

    let mut replay = Replay::default();
    let untraced = Phase::run(options.seconds, |samples| replay.round(&suite, samples));
    let traced = options.trace.then(|| {
        replay.phases = PhaseTimings::default();
        let (phase, profile) = layers::recorded(|| {
            Phase::run(options.seconds, |samples| replay.round(&suite, samples))
        });
        (phase, profile)
    });
    out.attempted = replay.attempted;
    out.failed = replay.failed.values().sum();
    out.problems.append(&mut replay.problems);

    // Output checks, outside every timed region: each distinct call on its
    // Mini twin. A failing key fails every call made with it.
    let mut calls_per_key = vec![0u64; suite.keys.len()];
    for s in &untraced.samples {
        calls_per_key[s.item] += 1;
    }
    if let Some((phase, _)) = &traced {
        for s in &phase.samples {
            calls_per_key[s.item] += 1;
        }
    }
    for (i, key) in suite.keys.iter().enumerate() {
        if let Err(e) = check_twin(&suite, key, options.seed) {
            let counted = replay.failed.get(&i).copied().unwrap_or(0);
            out.fail(
                calls_per_key[i] - counted,
                format!("{}: {e}", suite.label(key)),
            );
        }
    }

    let (speedup, spread) = quality(&suite, &replay.first);

    // Census: how much of a round repeats an input scheduled earlier in it.
    let mut seen = HashSet::new();
    let repeats = suite
        .calls
        .iter()
        .filter(|&&i| !seen.insert(suite.program(&suite.keys[i]).structural_hash()))
        .count();
    let repeat_share = repeats as f64 / suite.calls.len() as f64;

    let m = &mut out.metrics;
    drop(setup_times.batch(setup));
    m.set("setup_s", setup_times.median_s());
    untraced.record(m);
    m.set("model_speedup_geomean", speedup);
    if let Some((phase, profile)) = &traced {
        phase.record_overhead(&untraced, m);
        layers::record_schedule_layers(&replay.phases, profile, phase.rounds, m);
        m.set("daisy.variant_spread_geomean", spread);
        m.set("normalize.repeat_share", repeat_share);
        layers::record_store_layers(&[&suite.full, &suite.nonorm], m);
        let machine = MachineConfig::xeon_e5_2680v3();
        let mut distinct: Vec<(usize, Family)> = suite.programs.keys().copied().collect();
        distinct.sort_by_key(|&(bench, family)| (bench, family.label()));
        let inputs: Vec<Program> = distinct.iter().map(|k| suite.programs[k].clone()).collect();
        layers::front_layers(&inputs, &machine, m);
        // The simulator layers run on the Mini twins the output check
        // already builds: the Large inputs are far too big to simulate.
        let twins: Vec<Program> = distinct
            .iter()
            .map(|&(bench, family)| {
                build(
                    &suite.benchmarks[bench],
                    family,
                    Dataset::Mini,
                    variant_seed(options.seed, bench),
                )
            })
            .collect();
        let (stats, default_ms): (Vec<_>, Vec<f64>) = twins
            .iter()
            .map(|p| {
                let (stats, sample) = timed(0, || {
                    simulate_cache_sharded(p, &machine, 0).expect("Mini twins simulate")
                });
                (stats, sample.ms)
            })
            .unzip();
        layers::sim_layers(&twins, &stats, &default_ms, &machine, m);
    }
    m.set("peak_rss_mb", peak_rss_mb());

    let wall = untraced.wall();
    let medians = untraced.per_item_median_ms(suite.keys.len());
    let rows: Vec<String> = suite
        .keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            format!(
                "{{\"call\": {}, \"median_ms\": {}}}",
                json_str(&suite.label(key)),
                json_num(medians[i])
            )
        })
        .collect();
    out.report = vec![
        ("untraced", untraced.summary_json()),
        (
            "census",
            format!(
                "{{\"calls_per_round\": {}, \"distinct_calls\": {}, \"distinct_programs\": {}, \"repeat_share\": {}}}",
                suite.calls.len(),
                suite.keys.len(),
                suite.programs.len(),
                json_num(repeat_share)
            ),
        ),
        (
            "workers",
            format!(
                "{{\"scheduler\": {}, \"simulation\": 0}}",
                crate::harness::available_threads()
            ),
        ),
        (
            "named",
            format!(
                "{{\"schedule_calls_per_s\": {}, \"schedule_p50_ms\": {}, \"schedule_tail_ms\": {}, \"schedule_tail_percentile\": {}, \"speedup_vs_clang_geomean\": {}, \"variant_spread_geomean\": {}}}",
                json_num(wall.ops_per_s),
                json_num(wall.p50_ms),
                json_num(wall.tail_ms),
                json_num(wall.tail_percentile),
                json_num(speedup),
                json_num(spread)
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
    fn a_round_replays_the_three_figures_and_the_random_variants() {
        let calls = call_list(15);
        assert_eq!(calls.len(), 150);
        let full = calls
            .iter()
            .filter(|k| k.kind == SchedulerKind::Full)
            .count();
        assert_eq!(full, 90);
        let distinct: HashSet<&Key> = calls.iter().collect();
        assert_eq!(distinct.len(), 120);
    }

    #[test]
    fn the_same_seed_gives_identical_inputs_and_quality_metrics() {
        let work = WorkDir::create(&std::env::temp_dir(), "perfbench-selftest").unwrap();
        let quality_of = |seed: u64| {
            let suite = Suite::setup(Dataset::Mini, seed, &work, false);
            let mut replay = Replay::default();
            replay.round(&suite, &mut Vec::new());
            assert_eq!(replay.failed.values().sum::<u64>(), 0);
            let programs: Vec<Program> = suite
                .keys
                .iter()
                .map(|k| suite.program(k).clone())
                .collect();
            (programs, quality(&suite, &replay.first))
        };
        let (programs, (speedup, spread)) = quality_of(5);
        let (again, (speedup2, spread2)) = quality_of(5);
        assert_eq!(programs, again);
        assert_eq!(speedup.to_bits(), speedup2.to_bits());
        assert_eq!(spread.to_bits(), spread2.to_bits());
        assert!(speedup > 0.0 && spread >= 1.0);
    }

    #[test]
    fn random_variants_follow_the_seed() {
        let b = &all_benchmarks()[0];
        let variant = |seed: u64| build(b, Family::R, Dataset::Mini, variant_seed(seed, 0));
        assert_eq!(variant(3), variant(3));
        // Some benchmark's variant differs between two seeds.
        let differs = all_benchmarks().iter().enumerate().any(|(i, b)| {
            build(b, Family::R, Dataset::Mini, variant_seed(3, i))
                != build(b, Family::R, Dataset::Mini, variant_seed(4, i))
        });
        assert!(differs, "seeds 3 and 4 give identical random variants");
    }
}
