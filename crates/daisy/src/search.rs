//! Evolutionary search for optimization recipes.
//!
//! The paper seeds the scheduling database with recipes found by an
//! evolutionary search: the first epoch's population is seeded by the
//! Tiramisu auto-scheduler's proposals and refined through mutation and
//! selection with the measured runtime as fitness; later epochs re-seed from
//! the best recipes of the most similar loop nests (§4). Here the fitness is
//! the analytical cost model and the initial proposals come from a
//! structural proposal generator playing the role of the Tiramisu seed.
//!
//! # Evaluation pipeline
//!
//! Candidate evaluation — the dominant cost of the search — is incremental
//! and staged so the expensive part runs as rarely and as concurrently as
//! possible. The base program's per-node costs are priced once; a candidate
//! then differs from the base only in the nest the recipe rewrote, so its
//! score is the base costs with that one slot re-priced (summed in the same
//! order as a full [`CostModel::estimate`], so scores are bit-identical to
//! the naive path). Per candidate:
//!
//! 1. **Dedupe.** Recipes are fingerprinted; one identical to a recipe
//!    already scored anywhere in this search reuses its score without even
//!    being re-applied. (The duplicate stays in the population — selection
//!    dynamics are unchanged — it is only never re-evaluated.) Distinct
//!    recipes whose rewrites happen to be structurally identical are caught
//!    one stage later by the cost model's structural-hash memo.
//! 2. **Early reject.** A surviving recipe is checked against the nest's
//!    dependence graph — parallelizing a loop that carries a dependence or
//!    requesting a lexicographically negative permutation scores
//!    `f64::INFINITY` outright (previously the cost model's atomic penalty
//!    merely down-ranked such candidates) — and then *applied to the nest
//!    alone* (cheap, structural — no program clone); recipes whose
//!    transform legality check fails are likewise rejected without ever
//!    reaching the cost model.
//! 3. **Batched costing.** The unique legal rewrites of a generation are
//!    grouped by the rewrite's structural hash — distinct recipes that
//!    converge on the same lowered rewrite share one pricing — and the
//!    groups are priced on scoped worker threads (adaptively — tiny batches
//!    stay on the calling thread), each worker sharing the model's memo
//!    tables (per-nest costs and per-computation run summaries, so even
//!    structurally distinct candidates that merely permute or re-annotate
//!    outer loops re-price from cached run summaries).
//!
//! Results are deterministic: mutation draws happen on the single-threaded
//! RNG before evaluation, and scores are written back by candidate index.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use dependence::{is_permutation_legal, DependenceGraph};
use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;
use loop_ir::structural_hash_nodes;
use machine::CostModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use transforms::{perfect_chain, Recipe, Transform};

/// Maps `f` over `items` on scoped worker threads, preserving order.
pub(crate) fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    parallel_map_with(0, items, f)
}

/// The worker-thread count [`parallel_map_with`] actually uses for a
/// request: `0` means "the machine decides"; any explicit request is clamped
/// to [`std::thread::available_parallelism`] — oversubscribing cores only
/// adds spawn and scheduling overhead (a 12-worker request on a 1-core
/// machine once made the parallel scheduler ~0.84x of sequential) — and to
/// the item count.
pub(crate) fn effective_workers(requested: usize, items: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if requested == 0 {
        available
    } else {
        requested.min(available)
    };
    requested.min(items)
}

/// Maps `f` over `items` on `workers` scoped worker threads, preserving
/// order. `workers == 0` uses the machine's available parallelism; `1` runs
/// on the calling thread; larger requests are clamped by
/// [`effective_workers`]. Results are written back by item index, so the
/// output is independent of the worker count for any pure `f`.
///
/// A panic inside `f` is contained to the item that raised it: the worker
/// catches it, leaves the slot empty, and keeps draining the queue, so one
/// poisoned item can never take a whole seeding or scheduling fan-out down
/// with it. Each poisoned item is then retried *sequentially* on the
/// calling thread — a transient panic heals, and a deterministic one
/// re-raises there with an intact single-threaded backtrace instead of a
/// cross-thread join error.
pub(crate) fn parallel_map_with<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = effective_workers(workers, items.len());
    if !items.is_empty() {
        // Worker utilization: how many jobs a fan-out had, how many
        // workers served it. The per-worker item distribution (histogram)
        // is inherently racy — the counters are the deterministic part.
        telemetry::counter("daisy.parallel.jobs", items.len() as u64);
        telemetry::counter("daisy.parallel.workers", workers.max(1) as u64);
    }
    if workers <= 1 {
        // Same containment contract as the threaded path: one caught
        // attempt, then a bare retry that lets a persistent panic surface.
        return items
            .iter()
            .map(|item| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
                    .unwrap_or_else(|_| f(item))
            })
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
                        let item = &items[index];
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
                        if let Ok(value) = attempt {
                            out.push((index, value));
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            // A worker body only exits by returning `out`; a join error
            // would mean a panic escaped catch_unwind (an abort-on-unwind
            // payload) — skip it and let the sequential retry decide.
            let Ok(chunk) = handle.join() else { continue };
            telemetry::histogram("daisy.parallel.worker_items", chunk.len() as u64);
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

/// Configuration of the evolutionary search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Number of epochs (the paper uses three).
    pub epochs: usize,
    /// Refinement iterations per epoch (the paper uses three).
    pub iterations_per_epoch: usize,
    /// Population size.
    pub population: usize,
    /// RNG seed, fixed for reproducibility.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            epochs: 3,
            iterations_per_epoch: 3,
            population: 12,
            seed: 0xDA15F,
        }
    }
}

/// The evolutionary recipe search.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    config: SearchConfig,
    tile_sizes: Vec<i64>,
    parallel: bool,
    reference_eval: bool,
}

impl Default for EvolutionarySearch {
    fn default() -> Self {
        EvolutionarySearch::new(SearchConfig::default())
    }
}

impl EvolutionarySearch {
    /// Creates a search with the given configuration, evaluating candidates
    /// in parallel with structural dedupe.
    pub fn new(config: SearchConfig) -> Self {
        EvolutionarySearch {
            config,
            tile_sizes: vec![16, 32, 64, 128],
            parallel: true,
            reference_eval: false,
        }
    }

    /// Enables or disables parallel candidate evaluation. Disabled, unique
    /// candidates are costed one at a time on the calling thread (the
    /// incremental scoring and dedupe stay on) — useful under an outer
    /// parallel loop such as database seeding. Scores are identical either
    /// way.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Switches candidate scoring to the pre-refactor path: every candidate
    /// program is materialized and fully re-priced, sequentially, with no
    /// dedupe. Kept as the baseline the benches measure the overhauled
    /// pipeline against; finds identical recipes and scores.
    pub fn reference_evaluation(mut self) -> Self {
        self.reference_eval = true;
        self
    }

    /// Searches for the best recipe for `nest_index`-th top-level nest of the
    /// program, seeding the population with `seeds` (recipes of similar loop
    /// nests in later epochs, or the proposal generator's candidates) and
    /// evaluating fitness with `model`.
    ///
    /// Returns the best recipe found together with its estimated runtime.
    pub fn search(
        &self,
        program: &Program,
        nest_index: usize,
        model: &CostModel,
        seeds: &[Recipe],
    ) -> (Recipe, f64) {
        let Some(Node::Loop(nest)) = program.body.get(nest_index) else {
            return (Recipe::identity(), f64::INFINITY);
        };
        let _span = telemetry::span("search");
        let chain: Vec<Var> = perfect_chain(nest).iter().map(|l| l.iter.clone()).collect();
        // Dependences of the nest under search, computed once: the semantic
        // gate consults them for every candidate.
        let graph = nest_scoped_graph(program, nest);
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let mut population: Vec<Recipe> = Vec::new();
        population.push(Recipe::identity());
        population.extend(self.proposals(nest));
        population.extend(seeds.iter().cloned());
        population.truncate(self.config.population.max(4));

        // Per-node costs of the base program: candidates only ever rewrite
        // `nest_index`, so these are priced exactly once per search.
        let node_costs: Vec<f64> = if self.reference_eval {
            Vec::new()
        } else {
            model
                .estimate(program)
                .per_nest
                .iter()
                .map(|cost| cost.seconds)
                .collect()
        };
        let context = ScoreContext {
            program,
            nest_index,
            nest,
            node_costs: &node_costs,
            graph: &graph,
        };

        // Scores of every candidate evaluated anywhere in this search, keyed
        // by recipe fingerprint (identical recipes dedupe here; distinct
        // recipes with structurally identical rewrites dedupe one level
        // down, in the cost model's memo).
        let mut seen: HashMap<u64, f64> = HashMap::new();

        let scores = self.score_batch(&context, &population, model, &mut seen);
        let mut scored: Vec<(f64, Recipe)> = scores.into_iter().zip(population).collect();
        sort_by_fitness(&mut scored);

        for _epoch in 0..self.config.epochs.max(1) {
            for _iter in 0..self.config.iterations_per_epoch.max(1) {
                let _generation = telemetry::span("generation");
                // Keep the better half, refill with mutations of survivors.
                let keep = (scored.len() / 2).max(2);
                scored.truncate(keep);
                let survivors: Vec<Recipe> = scored.iter().map(|(_, r)| r.clone()).collect();
                // Draw the whole refill batch from the (single-threaded) RNG
                // first, then evaluate it in one deduped, parallel pass.
                let mut children = Vec::new();
                while scored.len() + children.len() < self.config.population.max(4) {
                    let parent = survivors
                        .choose(&mut rng)
                        .cloned()
                        .unwrap_or_else(Recipe::identity);
                    children.push(self.mutate(&parent, &chain, &mut rng));
                }
                let scores = self.score_batch(&context, &children, model, &mut seen);
                scored.extend(scores.into_iter().zip(children));
                sort_by_fitness(&mut scored);
            }
            // Re-seed the next epoch with fresh mutations of the incumbent,
            // mirroring the paper's re-seeding from the most similar nests.
            let best = scored[0].1.clone();
            let reseed = self.mutate(&best, &chain, &mut rng);
            let batch = [reseed];
            let f = self.score_batch(&context, &batch, model, &mut seen)[0];
            let [reseed] = batch;
            scored.push((f, reseed));
            sort_by_fitness(&mut scored);
        }
        let (best_time, best) = (scored[0].0, scored[0].1.clone());
        (best, best_time)
    }

    /// Scores a batch of recipes: early-reject, structural dedupe, then
    /// (adaptively parallel) incremental costing of the unique survivors,
    /// batched so each distinct lowered rewrite is priced exactly once.
    /// Returns one score per recipe, in order; `seen` accumulates scores
    /// across batches.
    fn score_batch(
        &self,
        context: &ScoreContext<'_>,
        recipes: &[Recipe],
        model: &CostModel,
        seen: &mut HashMap<u64, f64>,
    ) -> Vec<f64> {
        if self.reference_eval {
            // Pre-refactor path: materialize and fully re-price every
            // candidate program, one at a time. The semantic gate applies
            // here too, so both paths still find identical recipes.
            return recipes
                .iter()
                .map(|recipe| {
                    if !recipe_is_semantically_legal(context.graph, context.nest, recipe) {
                        return f64::INFINITY;
                    }
                    evaluate_recipe(context.program, context.nest_index, recipe, model)
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
        }

        // Stage 1: dedupe by recipe fingerprint — a recipe identical to one
        // already scored anywhere in this search skips even the rewrite.
        let keys: Vec<u64> = recipes.iter().map(recipe_fingerprint).collect();
        let mut jobs: Vec<(u64, &Recipe)> = Vec::new();
        for (key, recipe) in keys.iter().zip(recipes) {
            if !seen.contains_key(key) && jobs.iter().all(|(k, _)| k != key) {
                jobs.push((*key, recipe));
            }
        }
        telemetry::counter("daisy.search.candidates", recipes.len() as u64);
        telemetry::counter(
            "daisy.search.deduped_recipes",
            (recipes.len() - jobs.len()) as u64,
        );

        // Stage 2: rewrite the unique recipes on the calling thread (cheap,
        // structural). The semantic gate and recipes that fail to apply
        // score infinity without ever reaching the cost model.
        let rewrites: Vec<Option<Vec<Node>>> = jobs
            .iter()
            .map(|(_, recipe)| {
                if !recipe_is_semantically_legal(context.graph, context.nest, recipe) {
                    return None;
                }
                recipe.apply_to_nest(context.nest).ok()
            })
            .collect();
        telemetry::counter(
            "daisy.search.rejected_precost",
            rewrites.iter().filter(|r| r.is_none()).count() as u64,
        );

        // Stage 3: batch the candidate costing — one lowered rewrite per
        // structurally identical variant group. Distinct recipes of a
        // generation routinely converge on the same rewrite (step
        // reorderings, annotation toggles that cancel), so group by the
        // rewrite's structural hash and price each group exactly once.
        // Fan-out is adaptive: the first group is timed on the calling
        // thread, and the rest go to worker threads only when the remaining
        // work is long enough to amortize spawning them (cheap single-nest
        // programs stay sequential; multi-nest programs like CLOUDSC fan
        // out). Scores are identical at any fan-out.
        let mut group_of: Vec<Option<usize>> = vec![None; jobs.len()];
        let mut groups: Vec<(u64, &Vec<Node>)> = Vec::new();
        for (index, rewrite) in rewrites.iter().enumerate() {
            let Some(rewrite) = rewrite else { continue };
            let hash = structural_hash_nodes(rewrite);
            let group = groups
                .iter()
                .position(|(h, _)| *h == hash)
                .unwrap_or_else(|| {
                    groups.push((hash, rewrite));
                    groups.len() - 1
                });
            group_of[index] = Some(group);
        }
        telemetry::counter("daisy.search.rewrites_priced", groups.len() as u64);
        let price = |&(_, rewrite): &(u64, &Vec<Node>)| context.score_rewrite(rewrite, model);
        let group_costs: Vec<f64> = if self.parallel && groups.len() > 1 {
            let start = std::time::Instant::now();
            let first = price(&groups[0]);
            let elapsed = start.elapsed();
            let remaining = &groups[1..];
            let mut costs = vec![first];
            if elapsed * remaining.len() as u32 > std::time::Duration::from_micros(500) {
                costs.extend(parallel_map(remaining, price));
            } else {
                costs.extend(remaining.iter().map(price));
            }
            costs
        } else {
            groups.iter().map(price).collect()
        };
        for ((key, _), group) in jobs.iter().zip(&group_of) {
            let cost = group.map_or(f64::INFINITY, |g| group_costs[g]);
            seen.insert(*key, cost);
        }

        keys.into_iter().map(|key| seen[&key]).collect()
    }

    /// Structural proposals playing the role of the Tiramisu-seeded initial
    /// population: combinations of outer-loop parallelization, innermost
    /// vectorization and square tiling.
    pub fn proposals(&self, nest: &Loop) -> Vec<Recipe> {
        let chain: Vec<Var> = perfect_chain(nest).iter().map(|l| l.iter.clone()).collect();
        let mut out = Vec::new();
        if chain.is_empty() {
            return out;
        }
        let outer = chain[0].clone();
        let inner = chain[chain.len() - 1].clone();
        out.push(Recipe::new(vec![Transform::Parallelize {
            iter: outer.clone(),
        }]));
        out.push(Recipe::new(vec![Transform::Vectorize {
            iter: inner.clone(),
        }]));
        out.push(Recipe::new(vec![
            Transform::Parallelize {
                iter: outer.clone(),
            },
            Transform::Vectorize {
                iter: inner.clone(),
            },
        ]));
        if chain.len() >= 2 {
            for &tile in &[32i64, 64] {
                let tiles: Vec<(Var, i64)> = chain.iter().cloned().map(|v| (v, tile)).collect();
                out.push(Recipe::new(vec![
                    Transform::Tile { tiles },
                    Transform::Parallelize {
                        iter: Var::new(format!("{outer}_t")),
                    },
                    Transform::Vectorize {
                        iter: inner.clone(),
                    },
                ]));
            }
        }
        out
    }

    fn mutate(&self, parent: &Recipe, chain: &[Var], rng: &mut StdRng) -> Recipe {
        let mut steps = parent.steps.clone();
        if chain.is_empty() {
            return parent.clone();
        }
        let choice = rng.gen_range(0..4);
        match choice {
            // Toggle parallelization of the outermost loop (or its tile loop).
            0 => {
                let has_par = steps
                    .iter()
                    .any(|s| matches!(s, Transform::Parallelize { .. }));
                if has_par {
                    steps.retain(|s| !matches!(s, Transform::Parallelize { .. }));
                } else {
                    let target = if steps.iter().any(|s| matches!(s, Transform::Tile { .. })) {
                        Var::new(format!("{}_t", chain[0]))
                    } else {
                        chain[0].clone()
                    };
                    steps.push(Transform::Parallelize { iter: target });
                }
            }
            // Toggle vectorization of the innermost loop.
            1 => {
                let has_vec = steps
                    .iter()
                    .any(|s| matches!(s, Transform::Vectorize { .. }));
                if has_vec {
                    steps.retain(|s| !matches!(s, Transform::Vectorize { .. }));
                } else {
                    steps.push(Transform::Vectorize {
                        iter: chain[chain.len() - 1].clone(),
                    });
                }
            }
            // Add / resize tiling.
            2 => {
                let size = *self.tile_sizes.choose(rng).unwrap_or(&32);
                steps.retain(|s| !matches!(s, Transform::Tile { .. }));
                if chain.len() >= 2 && rng.gen_bool(0.8) {
                    let tiles: Vec<(Var, i64)> = chain.iter().cloned().map(|v| (v, size)).collect();
                    // Tiling must run before annotations that reference tile
                    // loops; put it first and re-point parallelization.
                    steps.insert(0, Transform::Tile { tiles });
                    for s in steps.iter_mut() {
                        if let Transform::Parallelize { iter } = s {
                            if !iter.as_str().ends_with("_t") && chain.contains(iter) {
                                *iter = Var::new(format!("{iter}_t"));
                            }
                        }
                    }
                } else {
                    // Tiling removed: re-point parallelization back to the
                    // original loops.
                    for s in steps.iter_mut() {
                        if let Transform::Parallelize { iter } = s {
                            if let Some(stripped) = iter.as_str().strip_suffix("_t") {
                                *iter = Var::new(stripped);
                            }
                        }
                    }
                }
            }
            // Add an unroll of the innermost loop.
            _ => {
                steps.retain(|s| !matches!(s, Transform::Unroll { .. }));
                if rng.gen_bool(0.5) {
                    steps.push(Transform::Unroll {
                        iter: chain[chain.len() - 1].clone(),
                        factor: *[2u32, 4, 8].choose(rng).unwrap_or(&4),
                    });
                }
            }
        }
        Recipe {
            steps,
            blas: parent.blas,
        }
    }
}

/// Dependence graph of one top-level nest in isolation.
///
/// The whole-program graph would let an iterator name shared between
/// unrelated top-level nests (ubiquitous in CLOUDSC, where every nest loops
/// over `jl`/`jk`) leak dependences across nests and veto legal
/// parallelizations; analyzing a single-nest copy of the program scopes
/// every query to the nest under search.
pub fn nest_scoped_graph(program: &Program, nest: &Loop) -> DependenceGraph {
    // Clone only the environment and the nest under analysis — a whole
    // program.clone() would deep-copy every other top-level nest just to
    // throw it away, O(program) per query.
    let sub = Program {
        name: program.name.clone(),
        params: program.params.clone(),
        scalar_params: program.scalar_params.clone(),
        arrays: program.arrays.clone(),
        body: vec![Node::Loop(nest.clone())],
    };
    dependence::analyze(&sub)
}

/// Semantic legality gate for a recipe against a nest's dependence graph:
///
/// * `interchange(order)` is illegal when the permuted direction vector of
///   any dependence becomes lexicographically negative,
/// * `tile(x:..)` is illegal when any dependence direction on a tiled
///   iterator admits `>`: `tile_band` hoists the tile loops outermost, and
///   a hoisted `>` level can run sink iterations before their source while
///   every other tile loop sits at "same tile" — the same reordering an
///   `interchange` to that order would be rejected for,
/// * `parallelize(x)` is illegal when `x` carries a dependence at its
///   position in the *final* loop order — a parallel mark travels with its
///   loop through later interchanges, so marks are validated after the
///   whole recipe's order is known, not at the step that set them,
/// * `parallelize(x_t)` (the hoisted tile loop of `x`) is illegal whenever
///   any dependence admits `<` in `x`: the tile loop runs above the whole
///   band, where no other loop can discharge the dependence (outer tile
///   loops always admit "same tile").
///
/// Tile loops are handled conservatively throughout: an outer tile loop
/// never discharges a dependence (the source and sink may fall into the
/// same tile), so parallelizing a point loop whose iterator carries a
/// dependence stays illegal even below its own tile loop.
///
/// Vectorization and unrolling are left to the cost model: the machine
/// model prices them as in-order SIMD/ILP, which is semantics-preserving
/// for the dependence patterns the IR can express.
pub fn recipe_is_semantically_legal(graph: &DependenceGraph, nest: &Loop, recipe: &Recipe) -> bool {
    let iters = nest.nested_iterators();
    // The loop order as the recipe unfolds, original iterators only (tile
    // loops are tracked through `tiled`: each `x_t` chunks `x` in place).
    let mut order = iters.clone();
    let mut tiled: BTreeSet<Var> = BTreeSet::new();
    let mut parallel_points: BTreeSet<Var> = BTreeSet::new();
    let mut parallel_tiles: BTreeSet<Var> = BTreeSet::new();
    for step in &recipe.steps {
        match step {
            Transform::Parallelize { iter } => {
                match iter.as_str().strip_suffix("_t") {
                    Some(stripped) if !iters.contains(iter) => {
                        parallel_tiles.insert(Var::new(stripped));
                    }
                    _ => {
                        parallel_points.insert(iter.clone());
                    }
                };
            }
            Transform::Interchange { order: new_order } => {
                let distinct: BTreeSet<&Var> = new_order.iter().collect();
                let applies = new_order.iter().all(|v| iters.contains(v))
                    && distinct.len() == new_order.len();
                if !applies {
                    continue;
                }
                if !is_permutation_legal(graph, nest, new_order) {
                    return false;
                }
                // The step names the new absolute order; iterators it does
                // not mention keep their previous relative order behind it.
                let mut next = new_order.clone();
                next.extend(order.iter().filter(|v| !new_order.contains(v)).cloned());
                order = next;
            }
            Transform::Tile { tiles } => {
                // The hoisted tile loop of `v` replays `v`'s direction
                // above the whole band; a direction admitting `>` there
                // makes some dependence vector lexicographically negative
                // (outer tile loops can always sit at "same tile", i.e.
                // `=`), so the reordering is illegal.
                let hoisted_negative = graph.all().iter().any(|dep| {
                    tiles.iter().any(|(v, _)| {
                        iters.contains(v) && dep.direction_of(v).is_some_and(|d| d.may_be_gt())
                    })
                });
                if hoisted_negative {
                    return false;
                }
                tiled.extend(tiles.iter().map(|(v, _)| v.clone()));
            }
            _ => {}
        }
    }
    // A tile loop sits above the whole band where nothing discharges a
    // dependence, so any `<` direction in its base iterator is carried.
    for base in &parallel_tiles {
        let carried = graph
            .all()
            .iter()
            .any(|dep| dep.direction_of(base).is_some_and(|d| d.may_be_lt()));
        if carried {
            return false;
        }
    }
    // Point-loop marks are judged at their position in the final order:
    // carried when the dependence can run in `base`'s direction while
    // every outer non-tile loop admits `=`.
    for base in &parallel_points {
        let Some(pos) = order.iter().position(|v| v == base) else {
            continue;
        };
        let carried = graph.all().iter().any(|dep| {
            dep.direction_of(base).is_some_and(|d| d.may_be_lt())
                && order[..pos]
                    .iter()
                    .all(|u| tiled.contains(u) || dep.direction_of(u).is_none_or(|d| d.may_be_eq()))
        });
        if carried {
            return false;
        }
    }
    true
}

/// Fingerprint of a recipe: a structural hash over its rendered steps and
/// BLAS marker. Two recipes share a fingerprint exactly when they contain the
/// same steps in the same order.
fn recipe_fingerprint(recipe: &Recipe) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = loop_ir::StructuralHasher::default();
    recipe.steps.len().hash(&mut hasher);
    for step in &recipe.steps {
        step.to_string().hash(&mut hasher);
    }
    recipe.blas.hash(&mut hasher);
    hasher.finish()
}

/// Everything the incremental scorer needs about the program under search.
struct ScoreContext<'a> {
    program: &'a Program,
    nest_index: usize,
    /// The nest being rewritten (`program.body[nest_index]`).
    nest: &'a Loop,
    /// Per-node seconds of the base program, aligned with `program.body`.
    node_costs: &'a [f64],
    /// Dependences of `nest` in isolation, for the semantic legality gate.
    graph: &'a DependenceGraph,
}

impl ScoreContext<'_> {
    /// Whole-program seconds of the candidate that replaces the nest with
    /// `rewrite`. Summed node by node in body order — the exact order
    /// [`CostModel::estimate`] uses — so the result is bit-identical to
    /// pricing the materialized candidate program.
    fn score_rewrite(&self, rewrite: &[Node], model: &CostModel) -> f64 {
        let mut seconds = 0.0;
        for &cost in &self.node_costs[..self.nest_index] {
            seconds += cost;
        }
        for node in rewrite {
            seconds += model.node_cost(self.program, node).seconds;
        }
        for &cost in &self.node_costs[self.nest_index + 1..] {
            seconds += cost;
        }
        seconds
    }
}

fn sort_by_fitness(scored: &mut [(f64, Recipe)]) {
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
}

/// Applies a recipe to the `nest_index`-th top-level node of a program and
/// returns the estimated runtime of the *whole* program, or `None` if the
/// recipe cannot be applied.
pub fn evaluate_recipe(
    program: &Program,
    nest_index: usize,
    recipe: &Recipe,
    model: &CostModel,
) -> Option<f64> {
    let candidate = apply_recipe_to_program(program, nest_index, recipe)?;
    Some(model.estimate(&candidate).seconds)
}

/// Builds a copy of the program with the recipe applied to one top-level
/// nest. Returns `None` when the recipe does not apply.
pub fn apply_recipe_to_program(
    program: &Program,
    nest_index: usize,
    recipe: &Recipe,
) -> Option<Program> {
    let Node::Loop(nest) = program.body.get(nest_index)? else {
        return None;
    };
    let replacement = recipe.apply_to_nest(nest).ok()?;
    let mut out = program.clone();
    out.body.splice(nest_index..=nest_index, replacement);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use machine::MachineConfig;

    fn gemm(n: i64) -> Program {
        parse_program(&format!(
            "program gemm {{ param N = {n};
               array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N {{ for k in 0..N {{ for j in 0..N {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn proposals_cover_parallel_vector_tile() {
        let p = gemm(256);
        let search = EvolutionarySearch::default();
        let proposals = search.proposals(p.loop_nests()[0]);
        assert!(proposals.len() >= 4);
        assert!(proposals
            .iter()
            .any(|r| r.steps.iter().any(|s| matches!(s, Transform::Tile { .. }))));
        assert!(proposals.iter().any(|r| r
            .steps
            .iter()
            .any(|s| matches!(s, Transform::Parallelize { .. }))));
    }

    #[test]
    fn search_beats_the_identity_schedule() {
        let p = gemm(512);
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let baseline = model.estimate(&p).seconds;
        let search = EvolutionarySearch::new(SearchConfig {
            epochs: 2,
            iterations_per_epoch: 2,
            population: 8,
            seed: 7,
        });
        let (best, time) = search.search(&p, 0, &model, &[]);
        assert!(
            time < baseline,
            "search ({time}) should beat identity ({baseline})"
        );
        assert!(!best.is_identity());
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let p = gemm(128);
        let model = CostModel::sequential();
        let search = EvolutionarySearch::default();
        let (a, ta) = search.search(&p, 0, &model, &[]);
        let (b, tb) = search.search(&p, 0, &model, &[]);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn seeds_participate_in_the_population() {
        let p = gemm(256);
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let seed_recipe = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![
                    (Var::new("i"), 64),
                    (Var::new("k"), 64),
                    (Var::new("j"), 64),
                ],
            },
            Transform::Parallelize {
                iter: Var::new("i_t"),
            },
            Transform::Vectorize {
                iter: Var::new("j"),
            },
        ]);
        let search = EvolutionarySearch::new(SearchConfig {
            epochs: 1,
            iterations_per_epoch: 1,
            population: 6,
            seed: 3,
        });
        let (_, with_seed) = search.search(&p, 0, &model, std::slice::from_ref(&seed_recipe));
        let seed_time = evaluate_recipe(&p, 0, &seed_recipe, &model).unwrap();
        assert!(with_seed <= seed_time + 1e-12);
    }

    #[test]
    fn invalid_recipe_evaluates_to_none() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let bad = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("does_not_exist"),
        }]);
        assert!(evaluate_recipe(&p, 0, &bad, &model).is_none());
        assert!(apply_recipe_to_program(&p, 5, &Recipe::identity()).is_none());
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree() {
        let p = gemm(192);
        let config = SearchConfig {
            epochs: 2,
            iterations_per_epoch: 2,
            population: 8,
            seed: 11,
        };
        let model_a = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let model_b = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let (r_par, t_par) = EvolutionarySearch::new(config.clone()).search(&p, 0, &model_a, &[]);
        let (r_seq, t_seq) =
            EvolutionarySearch::new(config)
                .with_parallel(false)
                .search(&p, 0, &model_b, &[]);
        assert_eq!(r_par, r_seq);
        assert_eq!(t_par, t_seq);
    }

    /// Builds a scoring context over the program's only nest.
    fn context_of<'a>(
        p: &'a Program,
        node_costs: &'a [f64],
        graph: &'a DependenceGraph,
    ) -> ScoreContext<'a> {
        let Node::Loop(nest) = &p.body[0] else {
            panic!("first node is a nest");
        };
        ScoreContext {
            program: p,
            nest_index: 0,
            nest,
            node_costs,
            graph,
        }
    }

    #[test]
    fn illegal_recipes_are_rejected_without_costing() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs: Vec<f64> = model
            .estimate(&p)
            .per_nest
            .iter()
            .map(|c| c.seconds)
            .collect();
        let search = EvolutionarySearch::default();
        let mut seen = HashMap::new();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let batch = [
            Recipe::new(vec![Transform::Parallelize {
                iter: Var::new("nope"),
            }]),
            Recipe::identity(),
        ];
        let scores = search.score_batch(
            &context_of(&p, &node_costs, &graph),
            &batch,
            &model,
            &mut seen,
        );
        assert_eq!(scores[0], f64::INFINITY);
        assert!(scores[1].is_finite());
        // Both recipes were fingerprinted (the illegal one caches its
        // rejection), but only the legal rewrite reached the cost model —
        // and it shares the base nest's memo entry.
        assert_eq!(seen.len(), 2);
        assert_eq!(model.memo_entries(), 1);
    }

    #[test]
    fn duplicate_candidates_are_priced_once() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs: Vec<f64> = model
            .estimate(&p)
            .per_nest
            .iter()
            .map(|c| c.seconds)
            .collect();
        let search = EvolutionarySearch::default();
        let mut seen = HashMap::new();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let vectorize = Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]);
        let batch = [vectorize.clone(), vectorize.clone(), vectorize];
        let scores = search.score_batch(
            &context_of(&p, &node_costs, &graph),
            &batch,
            &model,
            &mut seen,
        );
        assert_eq!(scores[0], scores[1]);
        assert_eq!(scores[1], scores[2]);
        assert_eq!(seen.len(), 1, "one structural hash, one evaluation");
    }

    #[test]
    fn incremental_scoring_matches_the_reference_path_exactly() {
        // Multi-nest program: the incremental scorer must fold unchanged
        // nest costs in body order so scores stay bit-identical.
        let p = parse_program(
            "program multi { param N = 96; array A[N][N]; array B[N][N]; array C[N][N];
               for a in 0..N { for b in 0..N { B[a][b] = A[a][b] * 2.0; } }
               for i in 0..N { for k in 0..N { for j in 0..N {
                 C[i][j] += A[i][k] * B[k][j];
               } } }
               for x in 0..N { for y in 0..N { A[x][y] = C[x][y] + 1.0; } } }",
        )
        .unwrap();
        let config = SearchConfig {
            epochs: 2,
            iterations_per_epoch: 2,
            population: 8,
            seed: 5,
        };
        let (r_new, s_new) =
            EvolutionarySearch::new(config.clone()).search(&p, 1, &CostModel::sequential(), &[]);
        let (r_ref, s_ref) = EvolutionarySearch::new(config)
            .reference_evaluation()
            .search(&p, 1, &CostModel::sequential().without_memoization(), &[]);
        assert_eq!(r_new, r_ref);
        assert_eq!(s_new, s_ref, "scores must be bit-identical");
    }

    #[test]
    fn carried_dependences_veto_parallelization_before_costing() {
        // A[i][j] = A[i-1][j] + 1: the i loop carries a dependence, j does
        // not. Parallelizing i (or its tile loop) must be rejected by the
        // dependence gate without reaching the cost model; parallelizing j
        // stays legal.
        let p = parse_program(
            "program stencil { param N = 64; array A[N][N];
               for i in 1..N { for j in 0..N { A[i][j] = A[i - 1][j] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(nest) = &p.body[0] else {
            panic!("first node is a nest");
        };
        let graph = nest_scoped_graph(&p, nest);
        let par_i = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("i"),
        }]);
        let par_j = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("j"),
        }]);
        let tiled_par_i = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16), (Var::new("j"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("i_t"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(&graph, nest, &par_i));
        assert!(recipe_is_semantically_legal(&graph, nest, &par_j));
        assert!(!recipe_is_semantically_legal(&graph, nest, &tiled_par_i));
        // Tiling does not launder the carried dependence onto the point
        // loop either: parallelize(i) below its own tile loop stays
        // illegal (source and sink may share a tile).
        let tiled_par_point_i = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("i"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(
            &graph,
            nest,
            &tiled_par_point_i
        ));

        // The gate follows interchanges: after swapping to (j, i), the
        // dependence A[i][j] = A[i-1][j] is carried by i at the *inner*
        // level only while j stays `=` — so parallelizing the new
        // outermost j is legal, and parallelizing i is still illegal
        // (j admits `=`, letting the dependence run in i).
        let swap_par_j = Recipe::new(vec![
            Transform::Interchange {
                order: vec![Var::new("j"), Var::new("i")],
            },
            Transform::Parallelize {
                iter: Var::new("j"),
            },
        ]);
        let swap_par_i = Recipe::new(vec![
            Transform::Interchange {
                order: vec![Var::new("j"), Var::new("i")],
            },
            Transform::Parallelize {
                iter: Var::new("i"),
            },
        ]);
        assert!(recipe_is_semantically_legal(&graph, nest, &swap_par_j));
        assert!(!recipe_is_semantically_legal(&graph, nest, &swap_par_i));

        // A diagonal dependence A[i][j] = A[i-1][j-1]: in the original
        // order i carries it and j is parallel; after interchange to
        // (j, i) the roles flip — j carries it, i becomes parallel. The
        // pre-fix gate consulted the original order for both and got both
        // post-interchange answers wrong.
        let diag = parse_program(
            "program diag { param N = 64; array A[N][N];
               for i in 1..N { for j in 1..N { A[i][j] = A[i - 1][j - 1] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(diag_nest) = &diag.body[0] else {
            panic!("first node is a nest");
        };
        let diag_graph = nest_scoped_graph(&diag, diag_nest);
        assert!(recipe_is_semantically_legal(&diag_graph, diag_nest, &par_j));
        assert!(!recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &swap_par_j
        ));
        assert!(recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &swap_par_i
        ));

        // tile_band hoists j_t above i, where nothing discharges the
        // diagonal dependence — parallelize(j_t) must be illegal even
        // though j's original position sits below the carrying i.
        let tile_par_jt = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("j"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("j_t"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &tile_par_jt
        ));

        // A parallel mark travels with its loop through a later
        // interchange: parallelize(j) is legal in order (i, j), but the
        // subsequent swap moves the marked j outermost where it carries
        // the diagonal dependence.
        let par_j_then_swap = Recipe::new(vec![
            Transform::Parallelize {
                iter: Var::new("j"),
            },
            Transform::Interchange {
                order: vec![Var::new("j"), Var::new("i")],
            },
        ]);
        assert!(!recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &par_j_then_swap
        ));

        // The gate rejects before costing: the illegal candidate scores
        // infinity and leaves no memo entry.
        let model = CostModel::sequential();
        let node_costs: Vec<f64> = model
            .estimate(&p)
            .per_nest
            .iter()
            .map(|c| c.seconds)
            .collect();
        let search = EvolutionarySearch::default();
        let mut seen = HashMap::new();
        let batch = [par_i.clone()];
        let scores = search.score_batch(
            &context_of(&p, &node_costs, &graph),
            &batch,
            &model,
            &mut seen,
        );
        assert_eq!(scores[0], f64::INFINITY);
        assert_eq!(
            model.memo_entries(),
            1,
            "only the base estimate is memoized"
        );

        // And the full search never emits an illegal parallelization.
        let (best, _) = search.search(&p, 0, &model, std::slice::from_ref(&par_i));
        for step in &best.steps {
            if let Transform::Parallelize { iter } = step {
                assert_eq!(iter, &Var::new("j"), "only j may be parallelized");
            }
        }
    }

    #[test]
    fn illegal_interchange_is_gated() {
        // A[i][j] = A[i-1][j+1]: direction (<, >); swapping i and j flips it
        // to (>, <), lexicographically negative.
        let p = parse_program(
            "program skew { param N = 8; array A[N][N];
               for i in 1..N { for j in 0..N - 1 { A[i][j] = A[i - 1][j + 1] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(nest) = &p.body[0] else {
            panic!("first node is a nest");
        };
        let graph = nest_scoped_graph(&p, nest);
        let swap = Recipe::new(vec![Transform::Interchange {
            order: vec![Var::new("j"), Var::new("i")],
        }]);
        let keep = Recipe::new(vec![Transform::Interchange {
            order: vec![Var::new("i"), Var::new("j")],
        }]);
        assert!(!recipe_is_semantically_legal(&graph, nest, &swap));
        assert!(recipe_is_semantically_legal(&graph, nest, &keep));
        // A recipe naming unknown iterators is left to the structural gate.
        let unknown = Recipe::new(vec![Transform::Interchange {
            order: vec![Var::new("x"), Var::new("y")],
        }]);
        assert!(recipe_is_semantically_legal(&graph, nest, &unknown));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&x: &usize| x).is_empty());
    }

    #[test]
    fn parallel_map_contains_worker_panics_and_retries_sequentially() {
        use std::sync::atomic::AtomicUsize;

        // Item 41 panics on its first (parallel) attempt only; the fan-out
        // must survive, retry it on the calling thread, and still produce
        // every result in order.
        let attempts_on_41 = AtomicUsize::new(0);
        let items: Vec<usize> = (0..128).collect();
        let results = parallel_map_with(4, &items, |&x| {
            if x == 41 && attempts_on_41.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient failure on item {x}");
            }
            x * 3
        });
        assert_eq!(results, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(attempts_on_41.load(Ordering::SeqCst), 2, "one retry");
    }

    #[test]
    fn parallel_map_repanics_deterministic_failures_on_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(4, &items, |&x| {
                if x == 13 {
                    panic!("deterministically poisoned item");
                }
                x
            })
        });
        assert!(caught.is_err(), "a persistent panic must still surface");
    }

    #[test]
    fn requested_workers_clamp_to_available_parallelism() {
        // Regression: an explicit 12-worker request on a 1-core machine
        // oversubscribed the scheduler to 0.84x of sequential. Requests
        // must never exceed the machine.
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_workers(0, 64), available.min(64));
        assert!(effective_workers(12, 1024) <= available);
        assert!(effective_workers(usize::MAX, 1024) <= available);
        assert_eq!(effective_workers(1, 8), 1);
        assert_eq!(effective_workers(8, 3), available.min(8).min(3));
        assert_eq!(effective_workers(4, 0), 0);
        // An oversubscribed request still maps correctly after clamping.
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(
            parallel_map_with(1024, &items, |&x| x + 1),
            (1..101).collect::<Vec<_>>()
        );
    }

    #[test]
    fn recipes_converging_on_one_rewrite_are_priced_once() {
        // [Par, Vec] and [Vec, Par] are distinct recipes (different
        // fingerprints) whose lowered rewrites are structurally identical;
        // the batched costing must price that rewrite exactly once. The
        // observable: both score identically and the model memoizes only
        // the base nest and the one rewritten nest.
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs: Vec<f64> = model
            .estimate(&p)
            .per_nest
            .iter()
            .map(|c| c.seconds)
            .collect();
        let search = EvolutionarySearch::default();
        let mut seen = HashMap::new();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let par = Transform::Parallelize {
            iter: Var::new("i"),
        };
        let vec = Transform::Vectorize {
            iter: Var::new("j"),
        };
        let batch = [
            Recipe::new(vec![par.clone(), vec.clone()]),
            Recipe::new(vec![vec, par]),
        ];
        let scores = search.score_batch(
            &context_of(&p, &node_costs, &graph),
            &batch,
            &model,
            &mut seen,
        );
        assert_eq!(scores[0], scores[1]);
        assert_eq!(seen.len(), 2, "two fingerprints, one shared score");
        assert_eq!(
            model.memo_entries(),
            2,
            "base nest + one rewrite: the duplicate rewrite never reached the model"
        );
    }

    #[test]
    fn apply_recipe_replaces_only_the_target_nest() {
        let p = parse_program(
            "program two { param N = 32; array A[N]; array B[N];
               for i in 0..N { A[i] = 1.0; }
               for j in 0..N { B[j] = 2.0; } }",
        )
        .unwrap();
        let recipe = Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]);
        let out = apply_recipe_to_program(&p, 1, &recipe).unwrap();
        assert!(!out.loop_nests()[0].schedule.vectorize);
        assert!(out.loop_nests()[1].schedule.vectorize);
    }
}
