//! Shared run machinery: command-line options, the closed-loop round
//! runner, set-up timing, the environment record and the result line.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::metrics::{json_num, json_str, Metrics, END_TO_END, PER_LAYER};
use crate::stats;

/// A run sets its workload up in two batches, one before and one after
/// the timed phases, so the samples span the run; each batch repeats the
/// set-up at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_BATCH_SECONDS`] have passed (at most [`SETUP_MAX_REPEATS`]
/// times). `setup_s` is the median over both batches.
pub const SETUP_MIN_REPEATS: usize = 3;
pub const SETUP_MAX_REPEATS: usize = 1000;
pub const SETUP_BATCH_SECONDS: f64 = 0.5;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !crate::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (valid: {})",
                crate::WORKLOADS.join(", ")
            ));
        }
        Ok(Options {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CPU seconds of every set-up a run performed (see [`Phase::cpu`] for
/// why CPU time).
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one batch of set-ups (see [`SETUP_MIN_REPEATS`]) and returns
    /// the last result.
    pub fn batch<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        let start = Instant::now();
        let mut repeats = 0;
        while repeats < SETUP_MIN_REPEATS
            || (start.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS && repeats < SETUP_MAX_REPEATS)
        {
            // Only one set-up is resident at a time, and dropping the
            // previous one is not timed.
            drop(last.take());
            let (value, sample) = timed(0, &mut setup);
            self.0.push(sample.cpu_ms / 1e3);
            last = Some(value);
            repeats += 1;
        }
        last.expect("at least one set-up")
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// CPU time consumed by this process so far, all threads included, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). On a virtual machine the kernel
/// leaves time stolen by the host out of it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std links on
    // Linux; `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One timed operation: which input it ran on, its wall-clock time and
/// the CPU time it consumed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub item: usize,
    pub ms: f64,
    pub cpu_ms: f64,
}

/// Times one call of `f` as a [`Sample`] of `item`.
pub fn timed<R>(item: usize, f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu = process_cpu_s();
    let start = Instant::now();
    let value = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (process_cpu_s() - cpu) * 1e3;
    (value, Sample { item, ms, cpu_ms })
}

/// The timing of one measured phase: every operation of every round.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub rounds: usize,
}

impl Phase {
    /// Runs whole rounds, one client in a closed loop, until `seconds`
    /// have passed (at least one round). `round` runs every operation of
    /// one round in order and appends its samples.
    pub fn run(seconds: u64, mut round: impl FnMut(&mut Vec<Sample>)) -> Phase {
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let mut phase = Phase::default();
        while phase.rounds == 0 || start.elapsed() < budget {
            round(&mut phase.samples);
            phase.rounds += 1;
        }
        phase
    }

    /// Wall-clock figures of the phase.
    pub fn wall(&self) -> Timing {
        Timing::of(&self.samples, |s| s.ms)
    }

    /// CPU-time figures of the phase: the end-to-end timing metrics. On a
    /// shared host they leave out time the hypervisor stole, which moves
    /// wall-clock figures by tens of percent within a minute.
    pub fn cpu(&self) -> Timing {
        Timing::of(&self.samples, |s| s.cpu_ms)
    }

    /// Median wall-clock time of each input, indexed by `Sample::item`.
    pub fn per_item_median_ms(&self, items: usize) -> Vec<f64> {
        (0..items)
            .map(|i| {
                let times: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.item == i)
                    .map(|s| s.ms)
                    .collect();
                stats::median(&times)
            })
            .collect()
    }

    /// Sets the timed end-to-end metrics of this phase.
    pub fn record(&self, metrics: &mut Metrics) {
        let cpu = self.cpu();
        metrics.set("ops_per_cpu_s", cpu.ops_per_s);
        metrics.set("op_cpu_p50_ms", cpu.p50_ms);
        metrics.set("op_cpu_tail_ms", cpu.tail_ms);
    }

    /// The traced-minus-untraced difference of each timed metric.
    pub fn record_overhead(&self, untraced: &Phase, metrics: &mut Metrics) {
        let (traced, untraced) = (self.cpu(), untraced.cpu());
        metrics.set(
            "trace.overhead.ops_per_cpu_s",
            traced.ops_per_s - untraced.ops_per_s,
        );
        metrics.set(
            "trace.overhead.op_cpu_p50_ms",
            traced.p50_ms - untraced.p50_ms,
        );
        metrics.set(
            "trace.overhead.op_cpu_tail_ms",
            traced.tail_ms - untraced.tail_ms,
        );
    }

    /// A JSON summary: sample count, rounds, and the wall-clock and CPU
    /// figures.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"samples\": {}, \"rounds\": {}, \"wall\": {}, \"cpu\": {}}}",
            self.samples.len(),
            self.rounds,
            self.wall().json(),
            self.cpu().json()
        )
    }
}

/// Order statistics of one phase's operation times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50_ms: f64,
    /// The tail percentile (see [`stats::tail`]) and its value. With too
    /// few samples for a percentile the tail is the slowest input's median
    /// instead (percentile 100), which does not move with the round count.
    pub tail_percentile: f64,
    pub tail_ms: f64,
    /// Operations per second of summed operation time.
    pub ops_per_s: f64,
}

impl Timing {
    fn of(samples: &[Sample], time: fn(&Sample) -> f64) -> Timing {
        let times_ms: Vec<f64> = samples.iter().map(time).collect();
        let (tail_percentile, mut tail_ms) = stats::tail(&times_ms);
        if tail_percentile == 100.0 {
            let items = samples.iter().map(|s| s.item + 1).max().unwrap_or(0);
            tail_ms = (0..items)
                .map(|i| {
                    let own: Vec<f64> = samples.iter().filter(|s| s.item == i).map(time).collect();
                    stats::median(&own)
                })
                .fold(0.0, f64::max);
        }
        let total_s = times_ms.iter().sum::<f64>() / 1e3;
        Timing {
            p50_ms: stats::median(&times_ms),
            tail_percentile,
            tail_ms,
            ops_per_s: stats::ratio(times_ms.len() as f64, total_s),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p50_ms\": {}, \"tail_percentile\": {}, \"tail_ms\": {}, \"ops_per_s\": {}}}",
            json_num(self.p50_ms),
            json_num(self.tail_percentile),
            json_num(self.tail_ms),
            json_num(self.ops_per_s)
        )
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the machine offers (`nproc`).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, read from `.git` when the run
/// directory is a git work tree; `"unknown"` otherwise.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A work directory for files a workload writes (the tuning stores),
/// removed again by `Drop`.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    /// The work root of a benchmark run: `perfbench-work` in the build
    /// directory (`CARGO_TARGET_DIR`, else `.bench_build`), which keeps
    /// every file the run writes inside its checkout.
    pub fn run_root() -> PathBuf {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"))
            .join("perfbench-work")
    }

    pub fn create(root: &Path, name: &str) -> std::io::Result<WorkDir> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The shared root goes too once no other run uses it.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each (empty when correct).
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Extra JSON fields for the report line (census, per-input rows).
    pub report: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The report line: environment record plus the workload's fields.
    pub fn report_json(&self, options: &Options) -> String {
        let mut fields = vec![
            ("workload", json_str(&options.workload)),
            ("seed", options.seed.to_string()),
            ("seconds", options.seconds.to_string()),
            ("trace", options.trace.to_string()),
            ("nproc", available_threads().to_string()),
            ("git_revision", json_str(&git_revision())),
            (
                "failed_op_share",
                json_num(stats::ratio(self.failed as f64, self.attempted as f64)),
            ),
        ];
        fields.extend(self.report.iter().cloned());
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{\"report\": {{{}}}}}", body.join(", "))
    }

    /// The result line: the last line of standard output.
    pub fn result_json(&self, options: &Options) -> String {
        let defs = if options.trace { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json(defs)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = Options::parse(&args(
            "--workload cloudsc_trace --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "cloudsc_trace");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 15, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload schedule_suite --seed x --seconds 1 --trace 0",
            "--workload schedule_suite --seed 1 --seconds 1 --trace 2",
            "--workload schedule_suite --seconds 1",
            "--workload schedule_suite --seed 1 --seconds",
            "--bogus 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn sub_seeds_are_reproducible_and_distinct() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn short_phases_take_the_slowest_input_median_as_tail() {
        let sample = |item, ms| Sample {
            item,
            ms,
            cpu_ms: ms,
        };
        // Two rounds of two inputs: input 1 has the slower median (6.0)
        // although input 0 has the single slowest sample.
        let phase = Phase {
            samples: vec![
                sample(0, 1.0),
                sample(1, 6.0),
                sample(0, 9.0),
                sample(1, 6.0),
            ],
            rounds: 2,
        };
        assert_eq!(phase.wall().tail_percentile, 100.0);
        assert_eq!(phase.wall().tail_ms, 6.0);
    }

    #[test]
    fn phases_run_whole_rounds() {
        let phase = Phase::run(0, |samples| {
            samples.push(Sample {
                item: 0,
                ms: 2.0,
                cpu_ms: 2.0,
            });
            samples.push(Sample {
                item: 1,
                ms: 4.0,
                cpu_ms: 4.0,
            });
        });
        assert_eq!(phase.rounds, 1);
        assert_eq!(phase.samples.len(), 2);
        assert_eq!(phase.wall().p50_ms, 3.0);
        assert_eq!(phase.cpu().tail_ms, 4.0);
        assert!((phase.wall().ops_per_s - 2.0 / 0.006).abs() < 1e-9);
        assert_eq!(phase.per_item_median_ms(2), vec![2.0, 4.0]);
    }
}
