//! Paper-size gates of the simulator, the execution engine, the scheduler
//! and the telemetry layer. Each gate keeps the bound and the condition it
//! was introduced with; the smoke-size identity checks of the same
//! workloads run in the tier-1 differential suites.
//!
//! Every test is `#[ignore]`d, because paper sizes take minutes:
//!
//! ```text
//! cargo test --release -p bench --test paper_gates -- --ignored
//! ```
//!
//! Tests named `identity_*` assert bit-identity only, never wall clock;
//! CI runs exactly those (`-- --ignored identity_`). The others are
//! wall-clock gates. Gates that need cores the machine does not have print
//! why they were skipped and pass. All tests take one lock, so no gate
//! times another gate's work.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bench::workloads::{cache_workloads, stencil_workloads, SCHEDULE_POINTS, UNIT_STRIDE};
use bench::{daisy_seeded_from_a_variants, geometric_mean};
use daisy::search::EvolutionarySearch;
use daisy::{DaisyConfig, DaisyScheduler, SearchConfig};
use loop_ir::program::Program;
use machine::interp::{reference, ProgramData};
use machine::{
    estimate_cache, simulate_cache, simulate_cache_per_access, simulate_cache_reference,
    simulate_cache_sharded, CompiledProgram, CostModel, MachineConfig,
};
use normalize::Normalizer;
use polybench::cloudsc::{
    erosion_optimized, erosion_original, erosion_single_level, full_model, CloudscSizes,
    CloudscVariant,
};
use polybench::{all_benchmarks, benchmark, Dataset};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn machine() -> MachineConfig {
    MachineConfig::xeon_e5_2680v3()
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The last result of `reps` runs of `f`, and the best wall clock in
/// seconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        result = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (result.expect("reps > 0"), best)
}

/// The named cache workloads at paper size whose names are in `names`.
fn paper_cache_workloads(names: &[&str]) -> Vec<(&'static str, Program)> {
    cache_workloads(false)
        .into_iter()
        .filter(|(name, _)| names.contains(name))
        .collect()
}

/// Asserts that the run-group and per-access pipelines report identical
/// counters, and returns `(per-access seconds, run-group seconds)`, each
/// the best of three.
fn time_pipelines(name: &str, program: &Program) -> (f64, f64) {
    let machine = machine();
    let (base, per_access_s) = best_of(3, || simulate_cache_per_access(program, &machine).unwrap());
    let (fast, run_s) = best_of(3, || simulate_cache(program, &machine).unwrap());
    assert_eq!(fast.accesses(), base.accesses(), "{name}: accesses");
    assert_eq!(fast.l1(), base.l1(), "{name}: L1 counters");
    assert_eq!(fast.l2(), base.l2(), "{name}: L2 counters");
    (per_access_s, run_s)
}

// ---------------------------------------------------------------------------
// Identity at paper size (run in CI)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper size; run with --ignored"]
fn identity_streaming_simulation_matches_the_reference_simulator() {
    let _serial = serial();
    let sizes = CloudscSizes::paper();
    let machine = machine();
    for program in [
        erosion_single_level(sizes, false),
        erosion_single_level(sizes, true),
        erosion_original(sizes),
    ] {
        let fast = simulate_cache(&program, &machine).unwrap();
        let slow = simulate_cache_reference(&program, &machine).unwrap();
        assert_eq!(fast.accesses(), slow.accesses(), "{}", program.name);
        assert_eq!(fast.l1(), slow.l1(), "{}: L1 counters", program.name);
        assert_eq!(fast.l2(), slow.l2(), "{}: L2 counters", program.name);
    }
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn identity_memoized_search_matches_the_reference_search() {
    let _serial = serial();
    let config = SearchConfig {
        epochs: 2,
        iterations_per_epoch: 2,
        population: 8,
        seed: 7,
    };
    let cloudsc = Normalizer::new()
        .run(&full_model(CloudscVariant::Dace, CloudscSizes::paper()))
        .unwrap()
        .program;
    let gemm = (benchmark("gemm").unwrap().a)(Dataset::Medium);
    let memoized = EvolutionarySearch::new(config.clone());
    let reference = EvolutionarySearch::new(config).reference_evaluation();
    for program in [&cloudsc, &gemm] {
        let fast = memoized.search(program, 0, &CostModel::new(machine(), 12), &[]);
        let slow = reference.search(
            program,
            0,
            &CostModel::new(machine(), 12).without_memoization(),
            &[],
        );
        assert_eq!(fast, slow, "{}: search result diverged", program.name);
    }
}

// ---------------------------------------------------------------------------
// Compiled execution and program-level scheduling
// ---------------------------------------------------------------------------

/// Runs `program` twice on freshly seeded storage (seeding outside the
/// timer) and returns the final array state and the best seconds.
fn best_execution(program: &Program, mut run: impl FnMut(&mut ProgramData)) -> (ProgramData, f64) {
    let mut best = f64::INFINITY;
    let mut data = None;
    for _ in 0..2 {
        let mut fresh = ProgramData::seeded(program).unwrap();
        let start = Instant::now();
        run(&mut fresh);
        best = best.min(start.elapsed().as_secs_f64());
        data = Some(fresh);
    }
    (data.expect("two runs"), best)
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn compiled_engine_is_ten_times_the_reference_interpreter() {
    let _serial = serial();
    let sizes = CloudscSizes::paper();
    let model_sizes = CloudscSizes {
        nblocks: 8,
        ..sizes
    };
    let mut workloads = vec![
        erosion_original(sizes),
        erosion_optimized(sizes),
        full_model(CloudscVariant::Fortran, model_sizes),
        full_model(CloudscVariant::Dace, model_sizes),
    ];
    for b in all_benchmarks() {
        if ["2mm", "gemm", "jacobi-2d", "correlation"].contains(&b.name) {
            workloads.push((b.a)(Dataset::Medium));
        }
    }
    let mut speedups = Vec::new();
    for program in &workloads {
        let (slow, reference_s) = best_execution(program, |data| {
            reference::Interpreter::new().run(program, data).unwrap();
        });
        // Lowering stays outside the timer: the pipeline lowers once and
        // executes many times.
        let compiled = CompiledProgram::lower(program).unwrap();
        let (fast, compiled_s) = best_execution(program, |data| {
            compiled.execute(data).unwrap();
        });
        assert!(slow == fast, "{}: array state diverged", program.name);
        println!(
            "{}: reference {reference_s:.4}s, compiled {compiled_s:.4}s, {:.1}x",
            program.name,
            reference_s / compiled_s
        );
        speedups.push(reference_s / compiled_s);
    }
    let speedup = geometric_mean(&speedups);
    println!("geo-mean interpreter speedup: {speedup:.2}x (gate >= 10x)");
    assert!(speedup >= 10.0, "{speedup:.2}x < 10x");
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn parallel_scheduling_is_faster_than_sequential_on_multicore() {
    let _serial = serial();
    let workloads: Vec<Program> = [
        CloudscVariant::Fortran,
        CloudscVariant::C,
        CloudscVariant::Dace,
    ]
    .into_iter()
    .map(|v| full_model(v, CloudscSizes::paper()))
    .collect();
    let dir = std::env::temp_dir().join(format!("paper-gates-{}", std::process::id()));
    let store = dir.join("daisy-full.tunedb");
    let seeded = daisy_seeded_from_a_variants(Dataset::Large, DaisyConfig::default());
    seeded.persist(&store).unwrap();

    let schedule_all = |scheduler: &DaisyScheduler| {
        best_of(5, || {
            workloads
                .iter()
                .map(|p| scheduler.schedule(p))
                .collect::<Vec<_>>()
        })
    };
    let mut seconds = Vec::new();
    let mut reference = None;
    for parallelism in [1usize, 12] {
        let mut cold = seeded.clone();
        cold.set_parallelism(parallelism);
        let mut warm = DaisyScheduler::new(DaisyConfig::default().with_parallelism(parallelism));
        warm.warm_start(&store).unwrap();
        let (cold_outcomes, cold_s) = schedule_all(&cold);
        let (warm_outcomes, _) = schedule_all(&warm);
        let reference = reference.get_or_insert_with(|| cold_outcomes.clone());
        assert!(*reference == cold_outcomes, "cold @{parallelism} diverged");
        assert!(*reference == warm_outcomes, "warm @{parallelism} diverged");
        seconds.push(cold_s);
    }
    std::fs::remove_dir_all(&dir).ok();

    let speedup = seconds[0] / seconds[1];
    println!("cold schedule speedup at parallelism 12 vs 1: {speedup:.2}x");
    if cores() > 1 {
        assert!(speedup > 1.0, "{speedup:.2}x <= 1x on {} cores", cores());
    } else {
        println!("skipped: the speedup gate needs more than one core");
    }
}

// ---------------------------------------------------------------------------
// Run-compressed simulation
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper size; run with --ignored"]
fn run_groups_are_five_times_per_access_on_unit_stride_workloads() {
    let _serial = serial();
    let mut speedups = Vec::new();
    for (name, program) in cache_workloads(false) {
        let (per_access_s, run_s) = time_pipelines(name, &program);
        println!("{name}: {:.2}x", per_access_s / run_s);
        if UNIT_STRIDE.contains(&name) {
            speedups.push(per_access_s / run_s);
        }
    }
    let speedup = geometric_mean(&speedups);
    println!("geo-mean unit-stride speedup: {speedup:.2}x (gate >= 5x)");
    assert!(speedup >= 5.0, "{speedup:.2}x < 5x");
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn multiblock_cloudsc_points_simulate_ten_million_accesses_in_under_a_second() {
    let _serial = serial();
    let machine = machine();
    for (name, program) in paper_cache_workloads(&SCHEDULE_POINTS) {
        let (cache, seconds) = best_of(3, || simulate_cache(&program, &machine).unwrap());
        println!("{name}: {} accesses in {seconds:.3}s", cache.accesses());
        assert!(cache.accesses() >= 10_000_000, "{name}: too few accesses");
        assert!(seconds < 1.0, "{name}: {seconds:.3}s >= 1s");
    }
}

// ---------------------------------------------------------------------------
// Telemetry overhead
// ---------------------------------------------------------------------------

/// Best-of-five seconds of `simulate_cache` under whatever recorder is
/// installed.
fn simulation_seconds(program: &Program) -> f64 {
    let machine = machine();
    best_of(5, || simulate_cache(program, &machine).unwrap()).1
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn disabled_telemetry_costs_under_two_percent_of_a_simulation() {
    let _serial = serial();
    assert!(!telemetry::enabled(), "no recorder may be installed");
    // The disabled fast path of each primitive, per call.
    const ITERS: u64 = 1_000_000;
    let (_, counter_s) = best_of(1, || {
        for i in 0..ITERS {
            telemetry::counter("paper_gates.disabled_probe", i & 1);
        }
    });
    let (_, span_s) = best_of(1, || {
        for _ in 0..ITERS {
            let _span = telemetry::span("paper_gates.disabled_span");
        }
    });
    let ns_per_hook = counter_s.max(span_s) * 1e9 / ITERS as f64;

    for (name, program) in paper_cache_workloads(&UNIT_STRIDE) {
        // Every event one simulation emits, each charged the disabled cost.
        let events = Arc::new(telemetry::CollectingRecorder::default());
        telemetry::with_recorder(events.clone(), || {
            simulate_cache(&program, &machine()).unwrap();
        });
        let hooks = events.events().len() as f64;
        let share = hooks * ns_per_hook * 1e-9 / simulation_seconds(&program);
        println!(
            "{name}: {hooks} hooks, {:.4}% of the simulation",
            share * 100.0
        );
        assert!(share < 0.02, "{name}: {:.4}% >= 2%", share * 100.0);
    }
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn enabled_recorder_keeps_simulation_under_one_and_a_half_times() {
    let _serial = serial();
    for (name, program) in paper_cache_workloads(&UNIT_STRIDE) {
        let disabled_s = simulation_seconds(&program);
        let recorder = Arc::new(telemetry::AggregatingRecorder::default());
        let enabled_s = telemetry::with_recorder(recorder, || simulation_seconds(&program));
        let ratio = enabled_s / disabled_s;
        println!("{name}: enabled/disabled {ratio:.3}x (gate < 1.5x)");
        assert!(ratio < 1.5, "{name}: {ratio:.3}x >= 1.5x");
    }
}

// ---------------------------------------------------------------------------
// Block-sharded simulation
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper size; run with --ignored"]
fn sharded_simulation_is_three_times_faster_at_four_workers() {
    let _serial = serial();
    let machine = machine();
    let mut speedups = Vec::new();
    for variant in [CloudscVariant::Fortran, CloudscVariant::Dace] {
        let program = full_model(variant, CloudscSizes::paper());
        let mut seconds = Vec::new();
        let mut baseline = None;
        for workers in [1usize, 2, 4, 8] {
            let (stats, s) = best_of(3, || {
                simulate_cache_sharded(&program, &machine, workers).unwrap()
            });
            let baseline = baseline.get_or_insert_with(|| stats.clone());
            assert_eq!(&stats, baseline, "{}: {workers} workers", program.name);
            seconds.push(s);
        }
        let monolithic = simulate_cache(&program, &machine).unwrap();
        assert_eq!(
            baseline.expect("swept").accesses(),
            monolithic.accesses(),
            "{}: sharded access count",
            program.name
        );
        println!(
            "{}: {:.2}x at 4 workers",
            program.name,
            seconds[0] / seconds[2]
        );
        speedups.push(seconds[0] / seconds[2]);
    }
    let worst = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    if cores() >= 4 {
        assert!(worst >= 3.0, "{worst:.2}x < 3x at 4 workers");
    } else {
        println!(
            "skipped: the 4-worker gate needs 4 cores, found {}",
            cores()
        );
    }
}

// ---------------------------------------------------------------------------
// Stencil lane merging and the analytic tier
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper size; run with --ignored"]
fn stencil_lane_merging_compresses_runs_four_times() {
    let _serial = serial();
    let machine = machine();
    let mut compressions = Vec::new();
    for (name, program) in stencil_workloads(false) {
        let fast = simulate_cache(&program, &machine).unwrap();
        let base = simulate_cache_per_access(&program, &machine).unwrap();
        assert_eq!(fast.accesses(), base.accesses(), "{name}: accesses");
        assert_eq!(fast.l1(), base.l1(), "{name}: L1 counters");
        assert_eq!(fast.l2(), base.l2(), "{name}: L2 counters");
        let compression = fast.accesses() as f64 / fast.probes().max(1) as f64;
        println!("{name}: {compression:.2}x accesses per L1 probe");
        compressions.push(compression);
    }
    let compression = geometric_mean(&compressions);
    println!("geo-mean stencil run-compression: {compression:.2}x (gate >= 4x)");
    assert!(compression >= 4.0, "{compression:.2}x < 4x");
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn analytic_tier_is_fifty_times_exact_simulation_on_unit_stride_workloads() {
    let _serial = serial();
    let machine = machine();
    let mut speedups = Vec::new();
    for (name, program) in cache_workloads(false) {
        let (exact, exact_s) = best_of(3, || simulate_cache(&program, &machine).unwrap());
        let (estimate, analytic_s) = best_of(3, || estimate_cache(&program, &machine).unwrap());
        assert_eq!(estimate.accesses, exact.accesses(), "{name}: accesses");
        assert!(
            estimate.brackets(&exact.l1(), &exact.l2()),
            "{name}: exact misses outside the estimate's error bound {}",
            estimate.error_bound
        );
        println!("{name}: {:.1}x", exact_s / analytic_s);
        if UNIT_STRIDE.contains(&name) {
            speedups.push(exact_s / analytic_s);
        }
    }
    let speedup = geometric_mean(&speedups);
    println!("geo-mean analytic speedup: {speedup:.1}x (gate >= 50x)");
    assert!(speedup >= 50.0, "{speedup:.1}x < 50x");
}

#[test]
#[ignore = "paper size; run with --ignored"]
fn col_major_run_groups_keep_up_with_per_access_simulation() {
    let _serial = serial();
    let (name, program) = paper_cache_workloads(&["col_major"]).remove(0);
    let (per_access_s, run_s) = time_pipelines(name, &program);
    let speedup = per_access_s / run_s;
    println!("{name}: run groups {speedup:.3}x per-access (gate >= 1.0x)");
    assert!(speedup >= 1.0, "{speedup:.3}x < 1.0x");
}
