//! Instrumentation contracts of the scheduling stack, asserted through a
//! [`CollectingRecorder`]: which spans a cold seeding emits, that a warm
//! start emits **zero** `search.generation` spans (the whole point of the
//! persistent store), that `schedule()` reports its four phases, and that
//! counter values are deterministic across identical runs.
//!
//! Every test runs inside `telemetry::with_recorder`, which serializes on
//! the process-global recorder — tests in this file can run on any number
//! of harness threads without cross-contaminating each other's sinks.

use std::sync::Arc;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use telemetry::{with_recorder, CollectingRecorder, Event};

fn gemm(n: i64) -> Program {
    parse_program(&format!(
        "program gemm_a {{ param NI = {n}; param NJ = {n}; param NK = {n};
           scalar alpha = 1.5; scalar beta = 1.2;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for i in 0..NI {{ for j in 0..NJ {{
             C[i][j] = C[i][j] * beta;
             for k in 0..NK {{ C[i][j] += alpha * A[i][k] * B[k][j]; }}
           }} }} }}"
    ))
    .unwrap()
}

fn config() -> DaisyConfig {
    DaisyConfig {
        idiom_detection: false,
        ..DaisyConfig::default()
    }
}

/// Completed span paths whose leaf segment is `search.generation`,
/// wherever they are rooted (seeding fans out to worker threads, whose
/// spans root at `search`).
fn generation_spans(sink: &CollectingRecorder) -> usize {
    sink.events()
        .iter()
        .filter(|e| {
            matches!(e, Event::SpanExit { path, .. }
                if path == "search.generation" || path.ends_with(".search.generation"))
        })
        .count()
}

#[test]
fn cold_seeding_emits_search_generation_spans_and_search_counters() {
    let sink = Arc::new(CollectingRecorder::default());
    with_recorder(sink.clone(), || {
        let mut scheduler = DaisyScheduler::new(config());
        scheduler.seed_from_programs(&[gemm(128)]);
    });
    assert_eq!(sink.span_count("seeding"), 1);
    assert!(
        generation_spans(&sink) > 0,
        "a cold seeding runs the evolutionary search: {:?}",
        sink.span_paths()
    );
    assert!(
        sink.counter_total("daisy.search.candidates") > 0,
        "the search scores candidates"
    );
    assert!(
        sink.counter_total("daisy.search.candidates")
            >= sink.counter_total("daisy.search.deduped_recipes"),
        "dedupes are a subset of candidates"
    );
}

#[test]
fn warm_start_emits_zero_search_generation_spans() {
    let dir = std::env::temp_dir().join(format!("daisy-telemetry-{}", std::process::id()));
    let path = dir.join("warm.tunedb");
    std::fs::create_dir_all(&dir).unwrap();
    let program = gemm(128);

    // Seed + persist outside the observed scope: only the warm run is
    // under observation. The cold run still goes through `with_recorder`
    // (into a discarded sink), so its events cannot leak into the sink of
    // a concurrently running test.
    let cold_outcome = with_recorder(Arc::new(CollectingRecorder::default()), || {
        let mut cold = DaisyScheduler::new(config());
        cold.seed_from_programs(std::slice::from_ref(&program));
        cold.persist(&path).unwrap();
        cold.schedule(&program)
    });

    let sink = Arc::new(CollectingRecorder::default());
    let warm_outcome = with_recorder(sink.clone(), || {
        let mut warm = DaisyScheduler::new(config());
        warm.warm_start(&path).unwrap();
        warm.schedule(&program)
    });
    assert_eq!(cold_outcome, warm_outcome, "warm must match cold");
    assert_eq!(
        generation_spans(&sink),
        0,
        "a warm-started schedule must never re-run the search: {:?}",
        sink.span_paths()
    );
    assert_eq!(sink.span_count("seeding"), 0);
    assert_eq!(sink.span_count("schedule"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_reports_its_four_phases_as_nested_spans() {
    let sink = Arc::new(CollectingRecorder::default());
    let outcome = with_recorder(sink.clone(), || {
        DaisyScheduler::new(config()).schedule(&gemm(64))
    });
    for phase in [
        "schedule.normalize",
        "schedule.seed",
        "schedule.search",
        "schedule.cost",
    ] {
        assert_eq!(sink.span_count(phase), 1, "missing {phase}");
    }
    assert_eq!(sink.span_count("schedule"), 1);
    assert!(outcome.phase_timings.total_ns() > 0);
    assert_eq!(sink.counter_total("daisy.schedule.calls"), 1);
}

#[test]
fn counter_values_are_deterministic_across_identical_runs() {
    let run = || {
        let sink = Arc::new(CollectingRecorder::default());
        with_recorder(sink.clone(), || {
            let mut scheduler = DaisyScheduler::new(config());
            scheduler.seed_from_programs(&[gemm(96)]);
            scheduler.schedule(&gemm(96));
        });
        [
            "daisy.search.candidates",
            "daisy.search.deduped_recipes",
            "daisy.search.rejected_precost",
            "daisy.search.rewrites_priced",
            "daisy.plan.candidates_priced",
            "daisy.plan.recipes_applied",
            "daisy.schedule.nests",
            "daisy.seed.nests",
        ]
        .map(|name| (name, sink.counter_total(name)))
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "decision counters must be stable across identical runs"
    );
}
