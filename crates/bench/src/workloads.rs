//! The named cache-simulation workloads behind the simulator's gates, each
//! at a smoke size (inputs of the tier-1 differential suites) and a paper
//! size (the `#[ignore]`d timing gates in `crates/bench/tests/paper_gates.rs`).
//!
//! [`cache_workloads`] spans the trace shapes the run-compressed simulator
//! and the analytic tier must get right: unit-stride fused bodies sweeping
//! cache-resident rows, a miss-bound GEMM, time-stepped stencils, DRAM
//! streaming, a super-line column walk and the multi-block CLOUDSC schedule
//! points of Figs. 11/12. [`stencil_workloads`] are the staggered
//! same-array tap bodies that stencil lane merging targets.

use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use polybench::cloudsc::{erosion_optimized, full_model, CloudscSizes, CloudscVariant};

use crate::figures::daisy_full_model;

/// The unit-stride workloads of [`cache_workloads`]: fused multi-statement
/// bodies whose traces within-line repeats dominate — the shape run
/// compression was built for.
pub const UNIT_STRIDE: [&str; 3] = ["fused_elementwise", "cloudsc_nproma_sweep", "saxpy_steps"];

/// The multi-block full-model CLOUDSC entries of [`cache_workloads`]: the
/// Fig. 11/12 schedule points.
pub const SCHEDULE_POINTS: [&str; 2] = [
    "cloudsc_full_fortran_multiblock",
    "cloudsc_full_daisy_multiblock",
];

fn parse(source: &str) -> Program {
    parse_program(source).unwrap_or_else(|e| panic!("workload parses: {e}\n{source}"))
}

/// Two Jacobi-style three-point sweeps per time step, ping-ponging `A`/`B`.
fn heat_1d(n: i64, t: i64) -> Program {
    parse(&format!(
        "program heat_1d {{ param N = {n}; param T = {t};
           array A[N]; array B[N];
           for t in 0..T {{
             for i in 1..N - 1 {{ B[i] = 0.25 * A[i - 1] + 0.5 * A[i] + 0.25 * A[i + 1]; }}
             for j in 1..N - 1 {{ A[j] = 0.25 * B[j - 1] + 0.5 * B[j] + 0.25 * B[j + 1]; }}
           }} }}"
    ))
}

/// A five-tap stencil over `t` time steps, walked forward or through
/// reversal subscripts.
fn stencil_5tap(n: i64, t: i64, reversed: bool) -> Program {
    let sub = |tap: i64| {
        if reversed {
            format!("M - {} - j", 3 - tap)
        } else {
            format!("j + {}", 2 + tap)
        }
    };
    let taps = [-2i64, -1, 0, 1, 2]
        .iter()
        .map(|&k| format!("A[{}]", sub(k)))
        .collect::<Vec<_>>()
        .join(" + ");
    parse(&format!(
        "program stencil_5tap {{ param N = {n}; param M = {}; param T = {t};
           array A[M]; array B[M];
           for t in 0..T {{
             for j in 0..N {{ B[{}] = ({taps}) * 0.2; }}
           }} }}",
        n + 5,
        sub(0),
    ))
}

/// The ten named cache workloads, smoke or paper sized.
pub fn cache_workloads(smoke: bool) -> Vec<(&'static str, Program)> {
    let size = |smoke_size: i64, paper_size: i64| if smoke { smoke_size } else { paper_size };
    let (ew_n, ew_t) = (size(128, 400), size(8, 1600));
    let (sweep_nproma, sweep_klev, sweep_t) = (size(16, 128), size(5, 137), size(2, 40));
    let (saxpy_n, saxpy_t) = (size(128, 512), size(8, 2500));
    let gemm_n = size(48, 160);
    let (heat_n, heat_t) = (size(256, 1200), size(8, 1000));
    let triad_n = size(20_000, 2_000_000);
    let col_n = size(64, 1024);
    let erosion_sizes = if smoke {
        CloudscSizes::mini()
    } else {
        CloudscSizes::paper()
    };
    // Enough blocks at paper NPROMA/KLEV to stream >= 10M accesses per
    // schedule point.
    let trace_sizes = CloudscSizes {
        nblocks: size(2, 64),
        ..erosion_sizes
    };
    vec![
        (
            "fused_elementwise",
            parse(&format!(
                "program fused_elementwise {{ param N = {ew_n}; param T = {ew_t};
                   array A[N]; array B[N]; array C[N]; array D[N]; array E[N];
                   for t in 0..T {{
                     for i in 0..N {{
                       D[i] = A[i] * B[i] + C[i];
                       E[i] = D[i] * 0.5 + A[i];
                       C[i] = E[i] - B[i];
                     }}
                   }} }}"
            )),
        ),
        (
            "cloudsc_nproma_sweep",
            parse(&format!(
                "program cloudsc_nproma_sweep {{
                   param NPROMA = {sweep_nproma}; param KLEV = {sweep_klev}; param T = {sweep_t};
                   array za[NPROMA]; array zb[NPROMA]; array zc[NPROMA]; array zd[NPROMA];
                   for t in 0..T {{ for jk in 0..KLEV {{ for jl in 0..NPROMA {{
                     za[jl] = za[jl] * 0.9 + zb[jl] * 0.1;
                     zc[jl] = za[jl] - zd[jl];
                     zd[jl] += zc[jl] * 0.5;
                   }} }} }} }}"
            )),
        ),
        (
            "saxpy_steps",
            parse(&format!(
                "program saxpy_steps {{ param N = {saxpy_n}; param T = {saxpy_t};
                   array A[N]; array B[N];
                   for t in 0..T {{
                     for i in 0..N {{ A[i] = A[i] * 1.5 + B[i]; }}
                   }} }}"
            )),
        ),
        (
            "gemm_ikj",
            parse(&format!(
                "program gemm_ikj {{ param N = {gemm_n};
                   array A[N][N]; array B[N][N]; array C[N][N];
                   for i in 0..N {{ for k in 0..N {{ for j in 0..N {{
                     C[i][j] += A[i][k] * B[k][j];
                   }} }} }} }}"
            )),
        ),
        ("heat_1d_steps", heat_1d(heat_n, heat_t)),
        (
            "cloudsc_erosion_optimized",
            erosion_optimized(erosion_sizes),
        ),
        (
            "cloudsc_full_fortran_multiblock",
            full_model(CloudscVariant::Fortran, trace_sizes),
        ),
        (
            "cloudsc_full_daisy_multiblock",
            daisy_full_model(trace_sizes),
        ),
        (
            "stream_triad",
            parse(&format!(
                "program stream_triad {{ param N = {triad_n};
                   array A[N]; array B[N]; array C[N];
                   for i in 0..N {{ A[i] = B[i] * 1.5 + C[i]; }} }}"
            )),
        ),
        (
            "col_major",
            parse(&format!(
                "program col_major {{ param N = {col_n}; array A[N][N];
                   for j in 0..N {{ for i in 0..N {{ A[i][j] = A[i][j] * 0.5; }} }} }}"
            )),
        ),
    ]
}

/// The three stencils of the lane-merging gate, smoke or paper sized.
pub fn stencil_workloads(smoke: bool) -> Vec<(&'static str, Program)> {
    let (n, t) = if smoke { (256, 4) } else { (1200, 200) };
    vec![
        ("heat_1d_3tap", heat_1d(n, t)),
        ("stencil_5tap", stencil_5tap(n, t, false)),
        ("stencil_5tap_rev", stencil_5tap(n, t, true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_sets_name_real_workloads() {
        let names: Vec<&str> = cache_workloads(true).iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 10);
        for name in UNIT_STRIDE.iter().chain(&SCHEDULE_POINTS) {
            assert!(names.contains(name), "{name}");
        }
    }
}
