//! The workloads and the untraced measurement loop.
//!
//! A workload is a fixed list of jobs (kernel × issue-queue kind × explicit
//! scale and budget). One *pass* runs every job once; an untraced run
//! repeats passes until its time is up and reports order statistics over
//! them.
//! Each job's simulated time is cut into fixed-size slices of retired
//! instructions (repeated `Core::run(target)` calls), and each slice's host
//! time is one sample.

use std::time::Instant;

use swque_bench::{Report, TRACE_CAPACITY};
use swque_core::{fnv1a64, IqKind};
use swque_cpu::{Core, CoreConfig, SimResult};
use swque_trace::{Json, TraceHandle, TraceSummary};
use swque_workloads::{suite, Kernel};

use crate::host;
use crate::metrics::{Class, Values};
use crate::stats::{beyond, median, percentile, sorted, tail_percentile};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IQ-capacity-bound work: nearly every cycle is busy, so host time is
    /// pipeline stages, issue-queue select/wakeup and the emulator.
    IlpBusy,
    /// Stall-bound work: most cycles are skipped, so host time is the
    /// memory model, the quiescence horizon and the skip path, plus large
    /// set-up.
    MlpStall,
    /// Many short cold runs over the whole suite, with trace rings and a
    /// serialised report: set-up, tracing and the harness carry a large
    /// share. Run on request only: its host times swing too far from run
    /// to run on a shared host to carry a regression bound.
    SuiteSweep,
}

impl Workload {
    /// Every workload: the two `BENCHMARK.json` declares, then `suite_sweep`.
    pub const ALL: [Workload; 3] = [Workload::IlpBusy, Workload::MlpStall, Workload::SuiteSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IlpBusy => "ilp_busy",
            Workload::MlpStall => "mlp_stall",
            Workload::SuiteSweep => "suite_sweep",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's jobs at full size, or at a tiny size for self-tests.
    pub fn jobs(self, tiny: bool) -> Vec<Job> {
        let kernel = |name: &str| suite::by_name(name).expect("suite kernel exists");
        match self {
            // 2 x 1M instructions in 20k slices: 100 slices a pass.
            Workload::IlpBusy => ["deepsjeng_like", "bwaves_like"]
                .into_iter()
                .map(|name| {
                    let k = kernel(name);
                    Job::new(
                        k.clone(),
                        IqKind::Swque,
                        k.default_scale,
                        100_000,
                        900_000,
                        20_000,
                    )
                })
                .map(|j| if tiny { j.tiny() } else { j })
                .collect(),
            // Scale 12 000 runs past 1.6M instructions; at their default
            // scale these kernels halt at 1.10M and 1.19M.
            Workload::MlpStall => ["omnetpp_like", "xz_like"]
                .into_iter()
                .map(|name| {
                    Job::new(
                        kernel(name),
                        IqKind::Swque,
                        12_000,
                        100_000,
                        900_000,
                        20_000,
                    )
                })
                .map(|j| if tiny { j.tiny() } else { j })
                .collect(),
            // fig09 in miniature: every kernel at a tenth of its default
            // scale, AGE and SWQUE, 10k warmup + 20k window, 5k slices.
            Workload::SuiteSweep => suite::all()
                .into_iter()
                .flat_map(|k| {
                    [IqKind::Age, IqKind::Swque].map(|kind| {
                        let scale = k.default_scale / 10;
                        Job {
                            ring: true,
                            ..Job::new(k.clone(), kind, scale, 10_000, 20_000, 5_000)
                        }
                    })
                })
                .map(|j| if tiny { j.tiny() } else { j })
                .collect(),
        }
    }
}

/// One simulation: a kernel on a queue kind, with an explicit scale and an
/// explicit warmup, measured window and slice size (in retired
/// instructions).
#[derive(Debug, Clone)]
pub struct Job {
    /// The suite kernel.
    pub kernel: Kernel,
    /// Issue-queue organization (medium model).
    pub kind: IqKind,
    /// Kernel scale passed to `Kernel::build_seeded`.
    pub scale: u64,
    /// Warmup instructions before the measured window.
    pub warmup: u64,
    /// Instructions the measured window must retire.
    pub window: u64,
    /// Instructions per timed slice.
    pub slice: u64,
    /// Attach a trace ring for the measured window and add the run to the
    /// pass's `swque-bench-v1` report.
    pub ring: bool,
}

impl Job {
    fn new(kernel: Kernel, kind: IqKind, scale: u64, warmup: u64, window: u64, slice: u64) -> Job {
        Job {
            kernel,
            kind,
            scale,
            warmup,
            window,
            slice,
            ring: false,
        }
    }

    fn tiny(self) -> Job {
        Job {
            scale: 300,
            warmup: 2_000,
            window: 6_000,
            slice: 1_000,
            ..self
        }
    }

    /// `kernel/kind`, for messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kernel.name, self.kind.label())
    }
}

/// A named host-time interval, kept in memory by a traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`<layer>.<call>`).
    pub name: &'static str,
    /// Index of the job the span belongs to.
    pub job: usize,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times intervals; when on, also records each as a [`Span`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
}

/// An interval begun by [`Recorder::begin`].
#[derive(Debug)]
#[must_use = "end the interval with Recorder::end"]
pub struct Token {
    start: Instant,
    index: Option<usize>,
}

impl Recorder {
    /// A recorder that only times.
    pub fn off() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: None,
            open: Vec::new(),
        }
    }

    /// A recorder that times and keeps spans.
    pub fn on() -> Recorder {
        Recorder {
            spans: Some(Vec::new()),
            ..Recorder::off()
        }
    }

    /// Starts an interval named `name` for job `job`, nested in the
    /// innermost open one.
    pub fn begin(&mut self, name: &'static str, job: usize) -> Token {
        let start = Instant::now();
        let index = self.spans.as_mut().map(|spans| {
            let ns = start.duration_since(self.origin).as_nanos() as u64;
            let parent = self.open.last().copied();
            spans.push(Span {
                name,
                job,
                start_ns: ns,
                end_ns: ns,
                parent,
            });
            spans.len() - 1
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        Token { start, index }
    }

    /// Ends an interval and returns its length in seconds.
    pub fn end(&mut self, token: Token) -> f64 {
        let end = Instant::now();
        if let (Some(i), Some(spans)) = (token.index, self.spans.as_mut()) {
            spans[i].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            self.open.retain(|&o| o != i);
        }
        end.duration_since(token.start).as_secs_f64()
    }

    /// The recorded spans (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// What one job produced.
#[derive(Debug)]
pub struct JobRun {
    /// Whole-run result, warmup included.
    pub result: SimResult,
    /// Instructions retired in the measured window.
    pub window: u64,
    /// Host seconds in `Kernel::build_seeded`.
    pub build_s: f64,
    /// Host seconds in `Core::new`.
    pub new_s: f64,
    /// Host seconds in `Core::run`, warmup included.
    pub sim_s: f64,
    /// Host microseconds per slice.
    pub slices_us: Vec<f64>,
    /// `Core::skip_stats` at the end: (jumps, cycles skipped).
    pub skip: (u64, u64),
    /// Trace-ring digest, when a ring was attached.
    pub trace: Option<TraceSummary>,
    /// Host seconds in `TraceSummary::from_events`.
    pub summary_s: f64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

impl JobRun {
    /// Digest of the simulated outcome: FNV-1a of the result's `Debug`
    /// render (every counter) and the window length.
    pub fn digest(&self) -> u64 {
        fnv1a64(format!("{:?} window={}", self.result, self.window).as_bytes())
    }
}

/// Runs `job` built with `seed`: build, `Core::new` with skipping on,
/// warmup and measured window in slices. A ring is attached for the
/// measured window when the job asks for one.
pub fn run_job(job: &Job, index: usize, seed: u64, rec: &mut Recorder) -> JobRun {
    let t = rec.begin("workloads.build", index);
    let program = job.kernel.build_seeded(Some(job.scale), seed);
    let build_s = rec.end(t);
    let t = rec.begin("cpu.new", index);
    let mut core = Core::new(CoreConfig::medium(), job.kind, &program);
    core.set_skip(true);
    let new_s = rec.end(t);

    let mut slices_us = Vec::new();
    let sim = rec.begin("cpu.run", index);
    run_slices(&mut core, job.warmup, job.slice, index, rec, &mut slices_us);
    let warm = core.retired();
    let handle = job.ring.then(|| TraceHandle::ring(TRACE_CAPACITY));
    if let Some(h) = &handle {
        core.attach_trace(h);
    }
    let result = run_slices(
        &mut core,
        warm + job.window,
        job.slice,
        index,
        rec,
        &mut slices_us,
    );
    let sim_s = rec.end(sim);

    let mut summary_s = 0.0;
    let trace = handle.map(|h| {
        let t = rec.begin("trace.summary", index);
        let summary = TraceSummary::from_events(&h.events(), h.dropped());
        summary_s = rec.end(t);
        summary
    });
    let window = core.retired() - warm;
    let failure = check(job, &result, window);
    JobRun {
        skip: core.skip_stats(),
        result,
        window,
        build_s,
        new_s,
        sim_s,
        slices_us,
        trace,
        summary_s,
        failure,
    }
}

/// Runs `core` to `goal` retired instructions in `slice`-instruction
/// steps, timing each; returns the last result.
fn run_slices(
    core: &mut Core,
    goal: u64,
    slice: u64,
    index: usize,
    rec: &mut Recorder,
    slices_us: &mut Vec<f64>,
) -> SimResult {
    let mut result = core.result();
    while core.active(goal) {
        let target = (core.retired() + slice).min(goal);
        let t = rec.begin("cpu.run_slice", index);
        result = core.run(target);
        slices_us.push(rec.end(t) * 1e6);
    }
    result
}

/// The output check of one job: no pipeline invariant broke and the
/// measured window is as long as requested.
pub fn check(job: &Job, result: &SimResult, window: u64) -> Option<String> {
    if let Some(v) = &result.invariant {
        return Some(format!("{}: {v}", job.label()));
    }
    (window < job.window).then(|| {
        format!(
            "{}: measured window {window} < requested {}",
            job.label(),
            job.window
        )
    })
}

/// One pass over a workload's jobs.
#[derive(Debug)]
pub struct Pass {
    /// Per-job results, in job order.
    pub jobs: Vec<JobRun>,
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Host seconds serialising the pass's report (0 without one).
    pub json_s: f64,
    /// Serialised report length in bytes (0 without one).
    pub report_bytes: usize,
    /// Why the report failed its check, if it did.
    pub report_failure: Option<String>,
}

impl Pass {
    /// Digest over every job's simulated outcome.
    pub fn digest(&self) -> u64 {
        let all: Vec<String> = self
            .jobs
            .iter()
            .map(|j| format!("{:016x}", j.digest()))
            .collect();
        fnv1a64(all.join(",").as_bytes())
    }

    /// Host seconds in build plus `Core::new`, summed over jobs.
    pub fn setup_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.build_s + j.new_s).sum()
    }

    /// Host seconds in `Core::run`, summed over jobs.
    pub fn sim_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.sim_s).sum()
    }

    /// Retired instructions (warmup included), summed over jobs.
    pub fn retired(&self) -> u64 {
        self.jobs.iter().map(|j| j.result.retired).sum()
    }

    /// Every slice time of the pass, ascending.
    pub fn slices_sorted(&self) -> Vec<f64> {
        let all: Vec<f64> = self
            .jobs
            .iter()
            .flat_map(|j| j.slices_us.iter().copied())
            .collect();
        sorted(&all)
    }
}

/// Runs one pass. Jobs that ask for a ring are added to a `swque-bench-v1`
/// report that is serialised and parsed back.
pub fn run_pass(jobs: &[Job], seed: u64, rec: &mut Recorder) -> Pass {
    let start = Instant::now();
    let mut report = Report::new("perfbench");
    report.param("seed", seed).param("model", "medium");
    let mut runs = Vec::with_capacity(jobs.len());
    let mut reported = 0;
    for (i, job) in jobs.iter().enumerate() {
        let run = run_job(job, i, seed, rec);
        if job.ring {
            report.push_row(Json::obj([
                ("program", Json::from(job.kernel.name)),
                ("iq", Json::from(job.kind.label())),
                ("cycles", Json::from(run.result.cycles)),
                ("retired", Json::from(run.result.retired)),
                ("ipc", Json::from(run.result.ipc())),
            ]));
            if let Some(summary) = &run.trace {
                report.push_trace(job.kernel.name, summary);
            }
            reported += 1;
        }
        runs.push(run);
    }
    let (mut json_s, mut report_bytes, mut report_failure) = (0.0, 0, None);
    if reported > 0 {
        let t = rec.begin("trace.json", usize::MAX);
        let text = report.to_json().to_string();
        json_s = rec.end(t);
        report_bytes = text.len();
        report_failure = check_report(&text, reported);
    }
    Pass {
        jobs: runs,
        wall_s: start.elapsed().as_secs_f64(),
        json_s,
        report_bytes,
        report_failure,
    }
}

/// The serialised report parses and holds one row and one trace per
/// reported run.
fn check_report(text: &str, runs: usize) -> Option<String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Some(format!("report does not parse: {e}")),
    };
    let count = |key: &str| doc.get(key).and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(swque_bench::BENCH_SCHEMA) || count("rows") != runs || count("traces") != runs
    {
        return Some(format!(
            "report has schema {schema:?}, {} rows and {} traces for {runs} runs",
            count("rows"),
            count("traces")
        ));
    }
    None
}

/// Result of a measurement: metric values, operation counts, and
/// diagnostics for the line before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub values: Values,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Diagnostics: host facts, demoted metrics, counts behind the metrics.
    pub diagnostics: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one operation, failed when `failure` is set.
    pub fn count(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Checks a pass against the first pass of the run and counts its
/// operations: each job is one, and so is the report when there is one.
pub fn tally(pass: &Pass, first_digests: &[u64], out: &mut Outcome) {
    for (run, &first) in pass.jobs.iter().zip(first_digests) {
        out.count(run.failure.clone().or_else(|| {
            (run.digest() != first).then(|| "simulated result differs between passes".to_string())
        }));
    }
    if pass.report_bytes > 0 || pass.report_failure.is_some() {
        out.count(pass.report_failure.clone());
    }
}

/// Set-ups of each job timed after every pass, beside the pass's own.
const EXTRA_SETUPS: usize = 2;

/// Host seconds to set `job` up as `run_job` does (`Kernel::build_seeded`
/// plus `Core::new` with skipping on); the core is then dropped.
fn time_setup(job: &Job, seed: u64) -> f64 {
    let start = Instant::now();
    let program = job.kernel.build_seeded(Some(job.scale), seed);
    let mut core = Core::new(CoreConfig::medium(), job.kind, &program);
    core.set_skip(true);
    let s = start.elapsed().as_secs_f64();
    drop(core);
    s
}

/// The untraced measurement: passes until `seconds` have elapsed (at least
/// one), each followed by [`EXTRA_SETUPS`] more set-ups of every job, then
/// order statistics over passes.
pub fn measure(workload: Workload, seed: u64, seconds: f64, tiny: bool) -> Outcome {
    let jobs = workload.jobs(tiny);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut probes = Vec::new();
    let mut first_digests = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        probes.push(host::speed_probe_s());
        let pass = run_pass(&jobs, seed, &mut Recorder::off());
        if passes.is_empty() {
            first_digests = pass.jobs.iter().map(JobRun::digest).collect();
        }
        tally(&pass, &first_digests, &mut out);
        for ((samples, job), run) in setups.iter_mut().zip(&jobs).zip(&pass.jobs) {
            samples.push(run.build_s + run.new_s);
            samples.extend((0..EXTRA_SETUPS).map(|_| time_setup(job, seed)));
        }
        passes.push(pass);
    }

    // Whole-pass figures are medians over passes. The bounded host times
    // are low order statistics taken per job and summed over jobs: the
    // fastest of a job's set-ups over the run, and the 1st percentile of
    // the job's slices pooled over the passes. A low order statistic
    // reflects the host's quiet moments, which repeat run to run far
    // better than any one pass does on a shared host; taking it per job
    // keeps every job in the figure, not just the cheapest one. The tail
    // is taken per pass, where the slice count (and so the percentile it
    // allows) is fixed.
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let job_setup_min: Vec<f64> = setups.iter().map(|s| sorted(s)[0]).collect();
    let job_slices: Vec<Vec<f64>> = (0..jobs.len())
        .map(|i| {
            let all: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.jobs[i].slices_us.iter().copied())
                .collect();
            sorted(&all)
        })
        .collect();
    let job_slice_p1: Vec<f64> = job_slices.iter().map(|s| percentile(s, 1.0)).collect();
    let pooled = sorted(
        &passes
            .iter()
            .flat_map(Pass::slices_sorted)
            .collect::<Vec<_>>(),
    );
    let slices_per_pass = passes[0].slices_sorted().len();
    let tail_p = tail_percentile(slices_per_pass).unwrap_or(100.0);
    let v = &mut out.values;
    v.set("setup_s", job_setup_min.iter().sum());
    v.set("slice_p1_us", job_slice_p1.iter().sum());
    v.set("peak_rss_mb", host::peak_rss_mib().unwrap_or(f64::NAN));
    v.set("wall_s", per_pass(&|p| p.wall_s));
    v.set(
        "sim_kips",
        per_pass(&|p| p.retired() as f64 / p.sim_s() / 1e3),
    );
    v.set("slice_p10_us", percentile(&pooled, 10.0));
    v.set("slice_p50_us", percentile(&pooled, 50.0));
    v.set(
        "slice_tail_us",
        per_pass(&|p| percentile(&p.slices_sorted(), tail_p)),
    );

    let d = &mut out.diagnostics;
    for m in crate::metrics::of_class(Class::Diagnostic) {
        d.push((
            m.name.into(),
            Json::Num(out.values.get(m.name).unwrap_or(f64::NAN)),
        ));
    }
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    d.push(("setup_s_per_job".into(), nums(&job_setup_min)));
    d.push((
        "setups_per_job".into(),
        Json::from(setups.first().map_or(0, Vec::len)),
    ));
    d.push(("slice_p1_us_per_job".into(), nums(&job_slice_p1)));
    d.push(("passes".into(), Json::from(passes.len())));
    d.push((
        "slices_per_job".into(),
        Json::Arr(job_slices.iter().map(|s| Json::from(s.len())).collect()),
    ));
    d.push(("slices_pooled".into(), Json::from(pooled.len())));
    d.push(("slices_per_pass".into(), Json::from(slices_per_pass)));
    d.push(("slice_tail_percentile".into(), Json::Num(tail_p)));
    d.push((
        "slices_beyond_tail".into(),
        Json::from(beyond(slices_per_pass, tail_p)),
    ));
    d.push(("host_probe_s_median".into(), Json::Num(median(&probes))));
    d.push(("host_probe_s_min".into(), Json::Num(sorted(&probes)[0])));
    let list =
        |f: &dyn Fn(&Pass) -> f64| Json::Arr(passes.iter().map(|p| Json::Num(f(p))).collect());
    d.push(("pass_wall_s".into(), list(&|p| p.wall_s)));
    d.push(("pass_setup_s".into(), list(&Pass::setup_s)));
    d.push((
        "digest".into(),
        Json::from(format!("{:016x}", passes[0].digest())),
    ));
    d.push((
        "jobs".into(),
        Json::Arr(passes[0].jobs.iter().zip(&jobs).map(job_facts).collect()),
    ));
    out
}

/// Simulated facts of one job, for the diagnostics line.
pub fn job_facts((run, job): (&JobRun, &Job)) -> Json {
    let r = &run.result;
    let age_frac = r.swque.map_or(f64::NAN, |s| {
        s.cycles_age as f64 / (s.cycles_age + s.cycles_circ_pc).max(1) as f64
    });
    Json::obj([
        ("job", Json::from(job.label())),
        ("cycles", Json::from(r.cycles)),
        ("retired", Json::from(r.retired)),
        ("window", Json::from(run.window)),
        ("build_s", Json::Num(run.build_s)),
        ("core_new_s", Json::Num(run.new_s)),
        ("ipc", Json::Num(r.ipc())),
        (
            "skipped_frac",
            Json::Num(run.skip.1 as f64 / r.cycles.max(1) as f64),
        ),
        ("age_cycle_frac", Json::Num(age_frac)),
        ("digest", Json::from(format!("{:016x}", run.digest()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_short_window_counts_as_a_failure() {
        // A window longer than the whole program: the kernel halts first.
        let k = suite::by_name("xz_like").unwrap();
        let job = Job {
            window: 10_000_000,
            ..Job::new(k, IqKind::Swque, 50, 1_000, 0, 2_000)
        };
        let pass = run_pass(std::slice::from_ref(&job), 1, &mut Recorder::off());
        let run = &pass.jobs[0];
        assert!(run.window < job.window);
        assert!(run
            .failure
            .as_deref()
            .is_some_and(|f| f.contains("measured window")));
        let mut out = Outcome::default();
        tally(&pass, &[run.digest()], &mut out);
        assert_eq!((out.attempted, out.failed()), (1, 1));
    }

    #[test]
    fn a_full_window_passes_and_repeats_exactly() {
        let jobs = Workload::IlpBusy.jobs(true);
        let a = run_pass(&jobs, 7, &mut Recorder::off());
        let b = run_pass(&jobs, 7, &mut Recorder::off());
        assert!(a
            .jobs
            .iter()
            .all(|j| j.failure.is_none() && j.window >= 6_000));
        assert_eq!(a.digest(), b.digest());
        let c = run_pass(&jobs, 8, &mut Recorder::off());
        assert_ne!(
            a.digest(),
            c.digest(),
            "the seed reaches the kernel generator"
        );
    }

    #[test]
    fn report_check_counts_rows_and_traces() {
        let jobs: Vec<Job> = Workload::SuiteSweep
            .jobs(true)
            .into_iter()
            .take(2)
            .collect();
        let pass = run_pass(&jobs, 3, &mut Recorder::off());
        assert_eq!(pass.report_failure, None);
        assert!(pass.report_bytes > 0);
        assert!(check_report("{}", 2).is_some());
        assert!(check_report("not json", 2).is_some());
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::on();
        let outer = rec.begin("a", 0);
        let inner = rec.begin("b", 0);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(Recorder::off().spans().is_empty());
    }
}
