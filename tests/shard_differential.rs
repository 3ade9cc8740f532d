//! Differential coverage of the block-sharded parallel cache simulation.
//!
//! [`machine::simulate_cache_sharded`] cuts a compiled program's trace into
//! shards (one per block-loop trip, or contiguous run-group windows for
//! non-blocked programs), streams each shard through its own cold
//! [`machine::CacheHierarchy`] replica on a worker pool and merges the
//! counters by shard index. This suite pins the two halves of the
//! determinism contract on random programs:
//!
//! * **worker invariance** — the merged [`machine::ShardedCacheStats`] is
//!   *bit-identical* at worker counts 1, 3 and 8 (the plan is a pure
//!   function of the program, never of the worker count);
//! * **per-shard run compression** — accesses and per-level counters match
//!   the sequential per-access oracle
//!   ([`machine::simulate_cache_sharded_per_access`]) on the same plan,
//!   including ragged and clamped-past-the-end cuts. `probes` is excluded:
//!   run compression probes once per distinct line, the oracle once per
//!   access (the same exclusion `cache_differential` makes).
//!
//! * **congruence grouping** — the driver simulates one representative per
//!   congruence class and scales it by the class size; the
//!   whole result, `probes` included, must equal the sum of the plan's
//!   shards simulated on single-shard plans of their own (one shard is one
//!   class, so nothing is grouped there). One named test per precondition
//!   of the congruence proof builds a program that the key alone would
//!   group wrongly, and checks that it keeps one class per shard.
//!
//! A single all-covering shard must degenerate to exactly the monolithic
//! [`machine::simulate_cache`], and zero-trip block loops to an empty plan
//! with all-zero counters.

use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use machine::{
    simulate_cache, simulate_cache_per_access, simulate_cache_sharded,
    simulate_cache_sharded_per_access, simulate_cache_sharded_tallied,
    simulate_cache_sharded_with_plan, CacheStats, CompiledProgram, MachineConfig, ShardGranularity,
    ShardPlan, ShardTally, ShardedCacheStats,
};
use polybench::cloudsc::{full_model, CloudscSizes, CloudscVariant};
use proptest::{prop_assert_eq, proptest, ProptestConfig, Strategy};

/// A blocked nest: `NB` trips of a top-level block loop, each reading and
/// writing its own `N`-element rows of `A`/`B` plus a vector `C` shared by
/// every block — deliberately *not* block-disjoint, so the contract is
/// checked on programs where stale lines from earlier blocks could matter.
/// `shape` picks the `B` subscript (unit, reversed, invariant) and whether
/// the body carries a cross-block reduction into `C`.
fn blocked_program(nb: i64, n: i64, shape: u8) -> Program {
    let b_subscript = match shape % 3 {
        0 => "b * N + i",
        1 => "b * N + (N - 1 - i)",
        _ => "b * N",
    };
    let extra = if shape >= 3 {
        "C[i] = C[i] + A[b * N + i];"
    } else {
        ""
    };
    parse_program(&format!(
        "program sharddiff {{
           param NB = {nb}; param N = {n};
           array A[NB * N]; array B[NB * N]; array C[N];
           for b in 0..NB {{
             for i in 0..N {{
               A[b * N + i] = B[{b_subscript}] * 0.5 + C[i];
               {extra}
             }}
           }}
         }}"
    ))
    .expect("generated blocked nest parses")
}

/// Asserts accesses and per-level counters (everything but `probes`) match
/// between a sharded result and its per-access oracle.
fn assert_counters_match(label: &str, fast: &ShardedCacheStats, oracle: &ShardedCacheStats) {
    assert_eq!(fast.accesses(), oracle.accesses(), "{label}: access counts");
    assert_eq!(fast.l1(), oracle.l1(), "{label}: L1 counters");
    assert_eq!(fast.l2(), oracle.l2(), "{label}: L2 counters");
    assert_eq!(fast.shards(), oracle.shards(), "{label}: shard counts");
}

/// The sum of `plan`'s shards, each simulated on a single-shard plan of
/// its own, as `(accesses, probes, L1, L2)`: the ungrouped reference of
/// the congruence grouping.
fn ungrouped(
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
) -> (u64, u64, CacheStats, CacheStats) {
    let mut sum = (0, 0, CacheStats::default(), CacheStats::default());
    for &cut in plan.shards() {
        let single = match plan.granularity() {
            ShardGranularity::Blocks => ShardPlan::blocks(vec![cut]),
            ShardGranularity::RunGroups => ShardPlan::run_groups(vec![cut]),
        };
        let s = simulate_cache_sharded_with_plan(compiled, &single, machine, 1).unwrap();
        sum.0 += s.accesses();
        sum.1 += s.probes();
        sum.2.merge(&s.l1());
        sum.3.merge(&s.l2());
    }
    sum
}

/// Asserts the grouped simulation of `plan` equals its ungrouped sum on
/// every field (`probes` included) and the per-access oracle on every
/// counter; returns the grouped result and the driver's tally for the
/// caller's class-count checks.
fn assert_grouping_is_exact(
    label: &str,
    compiled: &CompiledProgram,
    plan: &ShardPlan,
    machine: &MachineConfig,
) -> (ShardedCacheStats, ShardTally) {
    let (grouped, tally) = simulate_cache_sharded_tallied(compiled, plan, machine, 2).unwrap();
    assert_eq!(
        (
            grouped.accesses(),
            grouped.probes(),
            grouped.l1(),
            grouped.l2()
        ),
        ungrouped(compiled, plan, machine),
        "{label}: grouped vs ungrouped shards"
    );
    assert_eq!(grouped.shards(), plan.len(), "{label}: shard count");
    assert_eq!(grouped.granularity(), plan.granularity(), "{label}");
    let oracle = simulate_cache_sharded_per_access(compiled, plan, machine).unwrap();
    assert_counters_match(label, &grouped, &oracle);
    (grouped, tally)
}

/// Asserts that a program failing one congruence precondition keeps the
/// identity grouping — one class per block shard — and still simulates
/// exactly. On the tiny machine (translation period 1 KiB) every program
/// below translates each array by a multiple of the period, or not at
/// all, so the grouping key alone would put all its shards in one class.
fn assert_falls_back(label: &str, program: &Program) {
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    assert_eq!(plan.granularity(), ShardGranularity::Blocks, "{label}");
    assert!(plan.len() > 1, "{label}: several block shards");
    let (stats, tally) = assert_grouping_is_exact(label, &compiled, &plan, &machine);
    assert_eq!(tally.classes, plan.len(), "{label}: one class per shard");
    assert_eq!(tally.simulated_accesses, stats.accesses(), "{label}");
}

/// Contiguous ragged cuts over `nb` blocks: chunks of `chunk` trips, a
/// ragged last shard, plus one cut reaching past the end (the driver clamps
/// it).
fn ragged_cuts(nb: u64, chunk: u64) -> Vec<(u64, u64)> {
    let mut cuts = Vec::new();
    let mut lo = 0;
    while lo < nb {
        cuts.push((lo, (lo + chunk).min(nb)));
        lo += chunk;
    }
    cuts.push((nb, nb + 3));
    cuts
}

fn arbitrary_blocked_nest() -> impl Strategy<Value = (i64, i64, u8, u64)> {
    (1i64..11, 8i64..25, 0u8..6, 1u64..5).prop_map(|(nb, n, shape, chunk)| (nb, n, shape, chunk))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_blocked_programs_shard_deterministically(
        (nb, n, shape, chunk) in arbitrary_blocked_nest()
    ) {
        let program = blocked_program(nb, n, shape);
        // The tiny machine (1 KiB L1, 4 sets) forces set conflicts and
        // capacity evictions inside each shard replica.
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&program).unwrap();

        // The derived plan cuts at block granularity, one shard per trip.
        let plan = ShardPlan::for_program(&compiled).unwrap();
        prop_assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        prop_assert_eq!(plan.len(), nb as usize);

        for plan in [plan, ShardPlan::blocks(ragged_cuts(nb as u64, chunk))] {
            // Worker invariance: bit-identical merged stats at any count.
            let baseline = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
            for workers in [3usize, 8] {
                let threaded =
                    simulate_cache_sharded_with_plan(&compiled, &plan, &machine, workers).unwrap();
                prop_assert_eq!(&threaded, &baseline, "workers = {}", workers);
            }
            // Run compression, shard by shard, against the per-access oracle.
            let oracle = simulate_cache_sharded_per_access(&compiled, &plan, &machine).unwrap();
            assert_counters_match("blocked nest", &baseline, &oracle);
            // Congruence grouping: the whole result equals the ungrouped
            // shards, probes included.
            assert_grouping_is_exact("blocked nest", &compiled, &plan, &machine);
        }
    }
}

#[test]
fn congruent_block_shards_simulate_one_representative_per_class() {
    // 16 doubles per block row: every array but the shared C moves 128 B
    // per trip, so the tiny machine's 1 KiB period leaves 8 classes of 20
    // shards.
    let machine = MachineConfig::tiny_for_tests();
    let program = blocked_program(20, 16, 4);
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    let (stats, tally) = assert_grouping_is_exact("blocked nest", &compiled, &plan, &machine);
    assert_eq!(tally.classes, 8);
    assert_eq!(tally.simulated_accesses, stats.accesses() / 20 * 8);

    // Ragged cuts group by length as well as by phase: four-trip shards
    // alternate between two phases, and the clamped cut past the end is
    // empty.
    let ragged = ShardPlan::blocks(ragged_cuts(20, 4));
    let (_, tally) = assert_grouping_is_exact("ragged blocked nest", &compiled, &ragged, &machine);
    assert_eq!(tally.classes, 3);
}

#[test]
fn cloudsc_full_models_group_into_congruence_classes() {
    // Mini rows of 5 x 8 doubles move every field 320 B per block, which
    // repeats modulo the tiny machine's 1 KiB period every 16 blocks; the
    // DaCe temporaries do not move at all.
    let machine = MachineConfig::tiny_for_tests();
    for variant in [CloudscVariant::Fortran, CloudscVariant::Dace] {
        let program = full_model(
            variant,
            CloudscSizes {
                nblocks: 40,
                ..CloudscSizes::mini()
            },
        );
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        let (_, tally) = assert_grouping_is_exact(&program.name, &compiled, &plan, &machine);
        assert_eq!(tally.classes, 16, "{}", program.name);
    }
}

#[test]
fn block_dependent_inner_bounds_fall_back() {
    // Trip b runs b + 1 iterations: the loop structure changes per trip.
    let program = parse_program(
        "program triangular { param NB = 6; param N = 8; array A[N];
           for b in 0..NB { for i in 0..b + 1 { A[i] = A[i] + 1.0; } } }",
    )
    .unwrap();
    assert_falls_back("triangular", &program);
}

#[test]
fn symbolic_subscripts_fall_back() {
    let program = parse_program(
        "program symbolic { param NB = 6; param N = 16; array A[NB * N]; array B[N];
           for b in 0..NB { for i in 0..N { B[i] = A[(b * N + i) / 2]; } } }",
    )
    .unwrap();
    assert_falls_back("symbolic", &program);
}

#[test]
fn two_translations_of_one_array_fall_back() {
    // `A[b]` and `A[2 * b]`, scaled so both translations are multiples of
    // the period: the two accesses share a line at trip 0 only.
    let program = parse_program(
        "program twostrides { param NB = 6; param N = 8; array A[NB * 256]; array B[N];
           for b in 0..NB { for i in 0..N { B[i] = A[128 * b] + A[256 * b]; } } }",
    )
    .unwrap();
    assert_falls_back("two translations", &program);
}

#[test]
fn clamped_negative_offsets_fall_back() {
    // Trip 0 reads A[-4..0], which the trace clamps to A[0].
    let program = parse_program(
        "program clamped { param NB = 6; param N = 16; array A[NB * 128]; array B[N];
           for b in 0..NB { for i in 0..N { B[i] = A[b * 128 + i - 4]; } } }",
    )
    .unwrap();
    assert_falls_back("clamp", &program);
}

#[test]
fn out_of_bounds_accesses_into_the_next_array_fall_back() {
    // A spans exactly 8 KiB, so B starts right behind it: the last trip's
    // A reads land on B's lines, which the same trip also touches.
    let program = parse_program(
        "program aliasing { param NB = 8; param N = 16; array A[NB * 128]; array B[N];
           for b in 0..NB { for i in 0..N { B[i] = A[b * 128 + 128 + i]; } } }",
    )
    .unwrap();
    assert_falls_back("aliasing", &program);
}

#[test]
fn inner_loops_rebinding_the_block_iterator_fall_back() {
    // The inner loop reuses the block iterator's slot: its A access moves
    // with the inner value, not with the block, while the statement in
    // front of it moves with the block. The parser rejects the shadowing,
    // so the program is renamed after parsing.
    let mut program = parse_program(
        "program rebind { param NB = 12; param N = 8; array A[NB * 128]; array B[N * 128];
           for b in 0..NB {
             A[b * 128] = 1.0;
             for c in 0..N { B[c * 128] = A[c * 128]; }
           } }",
    )
    .unwrap();
    let (from, to) = (Var::new("c"), Var::new("b"));
    let Node::Loop(block) = &mut program.body[0] else {
        panic!("block loop")
    };
    let Node::Loop(inner) = &mut block.body[1] else {
        panic!("inner loop")
    };
    inner.iter = to.clone();
    for node in &mut inner.body {
        if let Node::Computation(c) = node {
            *c = c.rename_iterator(&from, &to);
        }
    }
    assert_falls_back("rebinding", &program);
}

#[test]
fn translations_off_the_period_keep_one_class_per_shard() {
    // The fdtd-2d shape: F[t] moves 8 B per trip while A stays put, so no
    // two of the 6 trips share a phase.
    let program = parse_program(
        "program offperiod { param T = 6; param N = 16; array A[N]; array F[T];
           for t in 0..T { for i in 0..N { A[i] = A[i] + F[t]; } } }",
    )
    .unwrap();
    assert_falls_back("off-period translation", &program);
}

#[test]
fn single_covering_shards_degenerate_to_the_monolithic_simulation() {
    let machine = MachineConfig::tiny_for_tests();
    for (nb, n, shape) in [(1i64, 16i64, 0u8), (7, 12, 1), (4, 24, 4)] {
        let program = blocked_program(nb, n, shape);
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::single(&compiled).unwrap();
        assert_eq!(plan.len(), 1);
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 4).unwrap();

        // One covering shard is the monolithic run-compressed simulation —
        // including probes, the pipelines are identical.
        let monolithic = simulate_cache(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), monolithic.accesses());
        assert_eq!(sharded.probes(), monolithic.probes());
        assert_eq!(sharded.l1(), monolithic.l1());
        assert_eq!(sharded.l2(), monolithic.l2());

        // And therefore bit-identical (minus probes) to the retained
        // per-access pipeline, closing the loop with cache_differential.
        let base = simulate_cache_per_access(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), base.accesses());
        assert_eq!(sharded.l1(), base.l1());
        assert_eq!(sharded.l2(), base.l2());
    }
}

#[test]
fn zero_trip_block_loops_shard_to_an_empty_plan_with_zero_counters() {
    let program = parse_program(
        "program shardzero { param NB = 4; param N = 8; param LO = 3; param HI = 3;
           array A[NB * N];
           for b in LO..HI { for i in 0..N { A[b * N + i] = 1.0; } } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    assert!(plan.is_empty(), "a zero-trip block loop has no shards");
    for workers in [0usize, 1, 8] {
        let stats = simulate_cache_sharded(&program, &machine, workers).unwrap();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.l1(), machine::CacheStats::default());
        assert_eq!(stats.l2(), machine::CacheStats::default());
    }
}

#[test]
fn run_group_fallback_is_worker_invariant_and_matches_the_oracle() {
    // Two top-level nests: no single block loop, so the plan falls back to
    // contiguous run-group windows.
    let program = parse_program(
        "program shardfallback { param N = 24;
           array A[N][N]; array B[N][N];
           for i in 0..N { for j in 0..N { A[i][j] = B[j][i] + 1.0; } }
           for i in 0..N { for j in 0..N { B[i][j] = A[i][j] * 0.5; } } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    assert_eq!(plan.granularity(), ShardGranularity::RunGroups);
    assert!(plan.len() > 1, "multi-nest programs split into windows");

    let baseline = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
    for workers in [3usize, 8] {
        let threaded =
            simulate_cache_sharded_with_plan(&compiled, &plan, &machine, workers).unwrap();
        assert_eq!(threaded, baseline, "workers = {workers}");
    }
    let oracle = simulate_cache_sharded_per_access(&compiled, &plan, &machine).unwrap();
    assert_counters_match("run-group fallback", &baseline, &oracle);
}

#[test]
fn cloudsc_full_models_shard_identically_at_every_worker_count() {
    // The derived block plan of the real multi-block traces, on the paper's
    // machine geometry: merged stats are worker-invariant and cover exactly
    // the monolithic simulation's accesses.
    let machine = MachineConfig::xeon_e5_2680v3();
    for variant in [CloudscVariant::Fortran, CloudscVariant::Dace] {
        let program = full_model(variant, CloudscSizes::mini());
        let baseline = simulate_cache_sharded(&program, &machine, 1).unwrap();
        for workers in [2usize, 4, 8] {
            let threaded = simulate_cache_sharded(&program, &machine, workers).unwrap();
            assert_eq!(threaded, baseline, "{}: workers = {workers}", program.name);
        }
        let monolithic = simulate_cache(&program, &machine).unwrap();
        assert_eq!(
            baseline.accesses(),
            monolithic.accesses(),
            "{}",
            program.name
        );
    }
}
