//! The traced run: per-layer host costs and counts.
//!
//! With the same seed and budgets as the untraced run, it
//!
//! 1. runs one untraced pass and discards it (it warms the process up);
//! 2. runs [`ROUNDS`] rounds of an untraced pass followed by a traced pass
//!    (spans around every call into a layer, a trace ring on every job and
//!    a serialised report). The first untraced pass is the reference for
//!    results; every other pass's `SimResult`s must be byte-identical to
//!    it. Tracing overhead compares the two kinds of pass slice by slice,
//!    each slice the best of its rounds;
//! 3. drives a fresh core per job cycle by cycle with
//!    `Core::quiescent_horizon` and `Core::step_cycle`, timing each call,
//!    and checks its `SimResult` against the reference as well;
//! 4. times each layer standalone over the job's own emulated stream:
//!    `Emulator::step`, `BranchPredictor::predict`+`update`,
//!    `MemoryHierarchy::access`, and an `IssueQueue` (CIRC-PC, AGE, SWQUE)
//!    fed the stream's dependences.
//!
//! Spans and per-call histograms stay in memory and are written as JSON
//! at the end.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use swque_branch::{BranchKind, BranchOutcome, BranchPredictor};
use swque_core::{DispatchReq, IqKind, IssueBudget, Tag};
use swque_cpu::{Core, CoreConfig, SimResult};
use swque_isa::{Emulator, Opcode, Program, Retired, NUM_ARCH_REGS};
use swque_mem::{AccessKind, MemoryHierarchy};
use swque_trace::Json;

use crate::metrics::Values;
use crate::workload::{run_pass, Job, Outcome, Pass, Recorder, Span, Workload};

/// Instructions of each kernel's stream the standalone probes replay.
const PROBE_INSTS: u64 = 400_000;

/// Untraced and traced passes alternate this many times in a traced run.
const ROUNDS: usize = 3;

/// Host µs per slice, slice by slice the best of `passes`: repeated runs of
/// the same jobs, whose slices line up because their simulated work is
/// identical.
fn best_slices(passes: &[Pass]) -> Vec<f64> {
    let all: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.jobs
                .iter()
                .flat_map(|j| j.slices_us.iter().copied())
                .collect()
        })
        .collect();
    (0..all[0].len())
        .map(|i| {
            all.iter()
                .filter_map(|s| s.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Log2-bucketed per-call host times: bucket `b` counts calls that took
/// `[2^b, 2^(b+1))` ns.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: [u64; 32],
    calls: u64,
    total_ns: f64,
}

impl Histogram {
    fn record(&mut self, ns: f64) {
        let b = (ns.max(1.0).log2() as usize).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.calls += 1;
        self.total_ns += ns;
    }

    /// Mean ns per call (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns / self.calls as f64
        }
    }

    fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("calls", Json::from(self.calls)),
            ("mean_ns", Json::Num(self.mean_ns())),
            (
                "log2_ns_buckets",
                Json::Arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Host cost of one `Instant::now()` pair, subtracted from per-call
/// timings so that short calls are not dominated by the clock.
fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times one call, net of the clock's own cost.
struct Clock {
    overhead_ns: f64,
}

impl Clock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64;
        (r, (ns - self.overhead_ns).max(0.0))
    }
}

/// Standalone per-call costs (ns) and the calls they were measured over.
#[derive(Debug, Default)]
struct Probes {
    emu_new_s: f64,
    mem_new_s: f64,
    isa_ns: f64,
    isa_calls: u64,
    branch_ns: f64,
    branch_calls: u64,
    mem_ns: f64,
    mem_calls: u64,
    /// Per kind: dispatch, wakeup and select (ns, calls).
    iq: BTreeMap<&'static str, [(f64, u64); 3]>,
    /// One entry per issue-queue probe: why it failed, if it did.
    iq_checks: Vec<Option<String>>,
}

/// The manual cycle-by-cycle drive of one job.
#[derive(Debug, Default)]
struct Drive {
    step: Histogram,
    horizon: Histogram,
    cycles: u64,
    quiescent: u64,
}

/// The traced measurement (see the module docs). Spans are written to
/// `out_dir` when given.
pub fn traced(workload: Workload, seed: u64, tiny: bool, out_dir: Option<&Path>) -> Outcome {
    let jobs = workload.jobs(tiny);
    let clock = Clock {
        overhead_ns: timer_overhead_ns(),
    };
    // The process's first pass pays one-time costs (heap growth, page
    // faults, cold host caches); it is run and discarded. Untraced and
    // traced passes then alternate, and host times take the best of the
    // rounds slice by slice, so that a slow host moment during one pass
    // does not read as tracing cost.
    run_pass(&jobs, seed, &mut Recorder::off());
    let ringed: Vec<Job> = jobs
        .iter()
        .map(|j| Job {
            ring: true,
            ..j.clone()
        })
        .collect();
    let (mut plains, mut traceds, mut rec) = (Vec::new(), Vec::new(), Recorder::on());
    for _ in 0..ROUNDS {
        plains.push(run_pass(&jobs, seed, &mut Recorder::off()));
        rec = Recorder::on();
        traceds.push(run_pass(&ringed, seed, &mut rec));
    }
    let (plain, traced) = (&plains[0], &traceds[ROUNDS - 1]);
    let best_plain_us: f64 = best_slices(&plains).iter().sum();
    let best_traced_us: f64 = best_slices(&traceds).iter().sum();

    let mut out = Outcome::default();
    let mut probes = Probes::default();
    let mut drive = Drive::default();
    let mut probed: Vec<&str> = Vec::new();
    for (i, ((job, p), t)) in jobs.iter().zip(&plain.jobs).zip(&traced.jobs).enumerate() {
        let program = job.kernel.build_seeded(Some(job.scale), seed);
        let manual = drive_job(job, &program, &clock, &mut drive);
        let repeats = plains.iter().chain(&traceds).map(|q| &q.jobs[i]);
        out.count(p.failure.clone().or_else(|| t.failure.clone()).or_else(|| {
            if repeats.clone().any(|q| q.digest() != p.digest()) {
                Some(format!(
                    "{}: traced or repeated SimResult differs from untraced",
                    job.label()
                ))
            } else if format!("{manual:?}") != format!("{:?}", p.result) {
                Some(format!(
                    "{}: stepped SimResult differs from Core::run",
                    job.label()
                ))
            } else {
                None
            }
        }));
        let t0 = rec.begin("isa.emu_new", i);
        black_box(Emulator::new(&program));
        probes.emu_new_s += rec.end(t0);
        let t0 = rec.begin("mem.new", i);
        black_box(MemoryHierarchy::new(CoreConfig::medium().mem));
        probes.mem_new_s += rec.end(t0);
        if !probed.contains(&job.kernel.name) {
            probed.push(job.kernel.name);
            let budget = (job.warmup + job.window).min(PROBE_INSTS);
            probe_layers(job.kernel.name, &program, budget, &clock, &mut probes);
        }
    }
    for check in probes.iq_checks.drain(..) {
        out.count(check);
    }
    // The traced pass reports every job, so it always writes a report.
    out.count(
        plain
            .report_failure
            .clone()
            .or_else(|| traced.report_failure.clone()),
    );

    let v = &mut out.values;
    v.set(
        "trace.overhead_pct",
        (best_traced_us / best_plain_us - 1.0) * 100.0,
    );
    record_metrics(
        &jobs,
        plain,
        traced,
        best_plain_us * 1e3,
        &probes,
        &drive,
        v,
    );
    let d = &mut out.diagnostics;
    d.push(("timer_overhead_ns".into(), Json::Num(clock.overhead_ns)));
    d.push((
        "digest".into(),
        Json::from(format!("{:016x}", plain.digest())),
    ));
    d.push((
        "iq_probe_ns".into(),
        Json::obj(probes.iq.iter().map(|(kind, ops)| {
            let per = |(ns, calls): (f64, u64)| Json::Num(ns / calls.max(1) as f64);
            (
                *kind,
                Json::obj([
                    ("dispatch", per(ops[0])),
                    ("wakeup", per(ops[1])),
                    ("select", per(ops[2])),
                ]),
            )
        })),
    ));
    d.push((
        "self_time_ms".into(),
        Json::obj(
            self_times(rec.spans())
                .into_iter()
                .map(|(n, ms)| (n, Json::Num(ms))),
        ),
    ));
    if let Some(dir) = out_dir {
        let doc = Json::obj([
            ("workload", Json::from(workload.name())),
            ("seed", Json::from(seed)),
            (
                "spans",
                Json::Arr(rec.spans().iter().map(span_json).collect()),
            ),
            ("step_cycle", drive.step.to_json()),
            ("quiescent_horizon", drive.horizon.to_json()),
        ]);
        let path = dir.join(format!("{}-seed{seed}.spans.json", workload.name()));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, format!("{doc}\n")));
        match written {
            Ok(()) => d.push(("spans_file".into(), Json::from(path.display().to_string()))),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    out
}

fn span_json(s: &Span) -> Json {
    Json::obj([
        ("name", Json::from(s.name)),
        (
            "job",
            if s.job == usize::MAX {
                Json::Null
            } else {
                Json::from(s.job)
            },
        ),
        ("start_ns", Json::from(s.start_ns)),
        ("end_ns", Json::from(s.end_ns)),
        ("parent", s.parent.map_or(Json::Null, Json::from)),
    ])
}

/// Self time per span name (ms): each span's length minus the part its
/// child spans cover.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6;
    }
    out
}

/// Drives a fresh core for `job` cycle by cycle to the same retirement
/// targets as `run_job`, timing `quiescent_horizon` on every cycle and
/// `step_cycle` on busy ones. Returns the final result.
fn drive_job(job: &Job, program: &Program, clock: &Clock, drive: &mut Drive) -> SimResult {
    let mut core = Core::new(CoreConfig::medium(), job.kind, program);
    core.set_skip(true);
    let mut step_to = |core: &mut Core, goal: u64| {
        while core.active(goal) {
            let (horizon, ns) = clock.time(|| core.quiescent_horizon());
            drive.horizon.record(ns);
            drive.cycles += 1;
            if horizon.is_some() {
                drive.quiescent += 1;
                core.step_cycle();
            } else {
                let ((), ns) = clock.time(|| core.step_cycle());
                drive.step.record(ns);
            }
        }
    };
    step_to(&mut core, job.warmup);
    let warm = core.retired();
    step_to(&mut core, warm + job.window);
    core.result()
}

/// Replays the first `budget` instructions of `program` (kernel `name`)
/// through each layer standalone.
fn probe_layers(name: &str, program: &Program, budget: u64, clock: &Clock, probes: &mut Probes) {
    // isa: Emulator::step over the stream (timed in blocks of 1024 steps).
    let mut emu = Emulator::new(program);
    let mut stream: Vec<Retired> = Vec::with_capacity(budget as usize);
    while (stream.len() as u64) < budget && !emu.halted() {
        let block = (budget - stream.len() as u64).min(1024);
        let (done, ns) = clock.time(|| {
            let before = stream.len();
            for _ in 0..block {
                match emu.step() {
                    Ok(r) if !emu.halted() => stream.push(r),
                    _ => break,
                }
            }
            stream.len() - before
        });
        probes.isa_ns += ns;
        probes.isa_calls += done as u64;
        if done == 0 {
            break;
        }
    }

    // branch: predict + update over the stream's control instructions.
    let config = CoreConfig::medium();
    let mut bp = BranchPredictor::new(config.predictor);
    let branches: Vec<&Retired> = stream.iter().filter(|r| r.inst.op.is_control()).collect();
    let ((), ns) = clock.time(|| {
        for r in &branches {
            let kind = match r.inst.op {
                Opcode::Jr => BranchKind::IndirectJump,
                Opcode::J | Opcode::Jal => BranchKind::DirectJump,
                _ => BranchKind::Conditional,
            };
            let pc = Program::byte_addr(r.pc);
            let pred = bp.predict(pc, kind);
            let outcome = BranchOutcome {
                taken: r.taken(),
                target: Program::byte_addr(r.next_pc),
            };
            black_box(bp.update(pc, kind, pred, outcome));
        }
    });
    probes.branch_ns += ns;
    probes.branch_calls += branches.len() as u64;

    // mem: access over the stream's data addresses, at most one a cycle
    // and at most `mshrs` outstanding (an access waits for the one
    // `mshrs` earlier to finish), so the stream cannot queue more
    // traffic than the core's miss-handling registers would let it.
    let mut mem = MemoryHierarchy::new(config.mem);
    let accesses: Vec<(u64, AccessKind)> = stream
        .iter()
        .filter_map(|r| {
            r.mem.map(|m| {
                (
                    m.addr,
                    if m.is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    },
                )
            })
        })
        .collect();
    let window = config.mem.mshrs.max(1);
    let ((), ns) = clock.time(|| {
        let mut done = vec![0u64; window];
        let mut now = 0u64;
        for (i, &(addr, kind)) in accesses.iter().enumerate() {
            now = now.max(done[i % window]);
            done[i % window] = black_box(mem.access(addr, kind, now)).done_at;
            now += 1;
        }
    });
    probes.mem_ns += ns;
    probes.mem_calls += accesses.len() as u64;

    // core: each queue kind fed the stream's register dependences.
    for kind in [IqKind::CircPc, IqKind::Age, IqKind::Swque] {
        let (ops, wedged) = drive_queue(kind, &config, &stream, clock);
        let entry = probes.iq.entry(kind.label()).or_default();
        for (acc, (ns, calls)) in entry.iter_mut().zip(ops) {
            acc.0 += ns;
            acc.1 += calls;
        }
        probes.iq_checks.push(wedged.then(|| {
            format!(
                "{}: {} queue probe wedged before draining the stream",
                name,
                kind.label()
            )
        }));
    }
}

/// Feeds `stream` through an issue queue of `kind` with a minimal
/// scheduler: round-robin physical tags, fixed latencies (loads as L1
/// hits), the medium model's width and function units, no mode polling.
/// Returns (ns, calls) for dispatch, wakeup and select, and whether the
/// queue wedged (stopped draining long before the stream could finish).
fn drive_queue(
    kind: IqKind,
    config: &CoreConfig,
    stream: &[Retired],
    clock: &Clock,
) -> ([(f64, u64); 3], bool) {
    const TAGS: usize = 1024;
    const LOAD_LATENCY: u64 = 4;
    let mut iq = kind.build(&config.iq);
    // Architectural register (int then fp) -> (producer tag, ready).
    let mut map: Vec<Option<(Tag, bool)>> = vec![None; 2 * NUM_ARCH_REGS];
    let mut next_tag = 0usize;
    let mut completions: BinaryHeap<Reverse<(u64, Tag)>> = BinaryHeap::new();
    let mut tag_owner: Vec<Option<usize>> = vec![None; TAGS];
    let mut ops = [(0.0, 0u64); 3];
    let (mut next, mut cycle) = (0usize, 0u64);
    while next < stream.len() || !iq.is_empty() || !completions.is_empty() {
        // Wakeup: broadcast every tag completing this cycle.
        while let Some(&Reverse((t, tag))) = completions.peek() {
            if t > cycle {
                break;
            }
            completions.pop();
            let ((), ns) = clock.time(|| iq.wakeup(tag));
            ops[1].0 += ns;
            ops[1].1 += 1;
            if let Some(reg) = tag_owner[tag as usize] {
                if let Some((t, ready)) = &mut map[reg] {
                    if *t == tag {
                        *ready = true;
                    }
                }
            }
        }
        // Select: grants complete after the opcode's latency.
        let mut budget = IssueBudget::new(config.width, config.fu_counts);
        let (grants, ns) = clock.time(|| iq.select(&mut budget));
        ops[2].0 += ns;
        ops[2].1 += 1;
        for g in grants {
            if let Some(dst) = g.dst {
                let op = stream[g.payload as usize].inst.op;
                let latency = if op.is_load() {
                    LOAD_LATENCY
                } else {
                    u64::from(op.latency()).max(1)
                };
                completions.push(Reverse((cycle + latency, dst)));
            }
        }
        // Dispatch: up to the width, in order, while the queue has room.
        for _ in 0..config.width {
            let Some(r) = stream.get(next) else { break };
            if r.inst.op == Opcode::Nop {
                next += 1;
                continue;
            }
            if !iq.has_space() {
                break;
            }
            let src = |reg: Option<swque_isa::ArchReg>| {
                reg.filter(|a| !a.is_zero())
                    .and_then(|a| map[a.flat_index()])
                    .and_then(|(tag, ready)| (!ready).then_some(tag))
            };
            let srcs = [src(r.inst.src1), src(r.inst.src2)];
            let dst = r.inst.dest().filter(|a| !a.is_zero()).map(|a| {
                let tag = (next_tag % TAGS) as Tag;
                next_tag += 1;
                map[a.flat_index()] = Some((tag, false));
                tag_owner[tag as usize] = Some(a.flat_index());
                tag
            });
            let req = DispatchReq::new(next as u64, next as u64, dst, srcs, r.inst.op.fu_class());
            let (accepted, ns) = clock.time(|| iq.dispatch(req));
            ops[0].0 += ns;
            ops[0].1 += 1;
            if accepted.is_err() {
                break;
            }
            next += 1;
        }
        cycle += 1;
        if cycle > 64 * stream.len() as u64 + 1_000 {
            return (ops, true);
        }
    }
    (ops, false)
}

/// Fills every per-layer metric.
fn record_metrics(
    jobs: &[Job],
    plain: &Pass,
    traced: &Pass,
    sim_ns: f64,
    probes: &Probes,
    drive: &Drive,
    v: &mut Values,
) {
    let runs = &plain.jobs;
    let sum = |f: &dyn Fn(&SimResult) -> u64| runs.iter().map(|r| f(&r.result)).sum::<u64>() as f64;
    let per = |ns: f64, calls: u64| ns / calls.max(1) as f64;
    let cycles = sum(&|r| r.cycles);
    let retired = sum(&|r| r.retired);
    let skipped: f64 = runs.iter().map(|r| r.skip.1 as f64).sum();

    v.set(
        "workloads.build_s",
        traced.jobs.iter().map(|j| j.build_s).sum(),
    );
    v.set("isa.emu_new_s", probes.emu_new_s);
    let isa_ns = per(probes.isa_ns, probes.isa_calls);
    v.set("isa.step_ns", isa_ns);
    v.set(
        "isa.est_share",
        (retired + sum(&|r| r.core.wrong_path_fetched)) * isa_ns / sim_ns,
    );
    let branch_ns = per(probes.branch_ns, probes.branch_calls);
    v.set("branch.predict_ns", branch_ns);
    v.set("branch.mispredicts", sum(&|r| r.branch.mispredicted));
    v.set(
        "branch.est_share",
        sum(&|r| r.branch.predicted) * branch_ns / sim_ns,
    );
    v.set("mem.new_s", probes.mem_new_s);
    let mem_ns = per(probes.mem_ns, probes.mem_calls);
    v.set("mem.access_ns", mem_ns);
    v.set("mem.l1d_misses", sum(&|r| r.mem.l1d.misses));
    v.set("mem.llc_demand_misses", sum(&|r| r.mem.llc_demand_misses));
    v.set("mem.mshr_stall_cycles", sum(&|r| r.mem.mshr_stall_cycles));
    v.set("mem.dram_transfers", sum(&|r| r.mem.dram_transfers));
    v.set(
        "mem.est_share",
        sum(&|r| r.mem.l1d.accesses + r.mem.l1i.accesses) * mem_ns / sim_ns,
    );

    let iq = |kind: &str, op: usize| {
        probes
            .iq
            .get(kind)
            .map_or(0.0, |ops| per(ops[op].0, ops[op].1))
    };
    let swque = IqKind::Swque.label();
    for (name, kind, op) in [
        ("core.dispatch_ns", swque, 0),
        ("core.wakeup_ns", swque, 1),
        ("core.select_ns", swque, 2),
        ("core.circ_pc.dispatch_ns", "CIRC-PC", 0),
        ("core.circ_pc.wakeup_ns", "CIRC-PC", 1),
        ("core.circ_pc.select_ns", "CIRC-PC", 2),
        ("core.age.dispatch_ns", "AGE", 0),
        ("core.age.wakeup_ns", "AGE", 1),
        ("core.age.select_ns", "AGE", 2),
    ] {
        v.set(name, iq(kind, op));
    }
    v.set("core.issued", sum(&|r| r.iq.issued));
    v.set("core.wakeups", sum(&|r| r.iq.wakeups));
    v.set(
        "core.occupancy_mean",
        sum(&|r| r.iq.occupancy_sum) / sum(&|r| r.iq.selects).max(1.0),
    );
    v.set("core.rv_issues", sum(&|r| r.iq.rv_issues));
    v.set("core.switches", sum(&|r| r.swque.map_or(0, |s| s.switches)));
    let age = sum(&|r| r.swque.map_or(0, |s| s.cycles_age));
    let pc = sum(&|r| r.swque.map_or(0, |s| s.cycles_circ_pc));
    v.set("core.age_cycle_frac", age / (age + pc).max(1.0));
    // Each job's own queue kind: the core made one select per stepped
    // (non-skipped) cycle.
    let job_iq_ns: f64 = runs
        .iter()
        .zip(jobs)
        .map(|(r, job)| {
            let [d, w, s] = [0, 1, 2].map(|op| iq(job.kind.label(), op));
            r.result.iq.dispatched as f64 * d
                + r.result.iq.wakeups as f64 * w
                + (r.result.cycles - r.skip.1) as f64 * s
        })
        .sum();
    v.set("core.est_share", job_iq_ns / sim_ns);

    v.set("cpu.new_s", traced.jobs.iter().map(|j| j.new_s).sum());
    v.set("cpu.step_cycle_ns", drive.step.mean_ns());
    v.set("cpu.horizon_ns", drive.horizon.mean_ns());
    v.set(
        "cpu.quiescent_frac",
        drive.quiescent as f64 / drive.cycles.max(1) as f64,
    );
    v.set("cpu.skip_jumps", runs.iter().map(|r| r.skip.0 as f64).sum());
    v.set("cpu.cycles_skipped", skipped);
    v.set("cpu.host_ns_per_cycle", sim_ns / cycles.max(1.0));
    v.set("cpu.host_ns_per_inst", sim_ns / retired.max(1.0));
    v.set(
        "cpu.wrong_path_fetched",
        sum(&|r| r.core.wrong_path_fetched),
    );
    v.set("cpu.cycles", cycles);
    v.set("cpu.retired", retired);
    v.set("cpu.ipc", retired / cycles.max(1.0));

    let traced_sim = traced.sim_s();
    v.set(
        "trace.events",
        traced
            .jobs
            .iter()
            .filter_map(|j| j.trace.as_ref())
            .map(|t| t.events as f64)
            .sum(),
    );
    v.set(
        "trace.dropped",
        traced
            .jobs
            .iter()
            .filter_map(|j| j.trace.as_ref())
            .map(|t| t.dropped as f64)
            .sum(),
    );
    v.set(
        "trace.summary_ms",
        traced.jobs.iter().map(|j| j.summary_s).sum::<f64>() * 1e3,
    );
    v.set("trace.json_ms", traced.json_s * 1e3);
    v.set(
        "bench.harness_ms",
        (traced.wall_s - traced.setup_s() - traced_sim) * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for ns in [0.0, 1.0, 3.0, 1000.0] {
            h.record(ns);
        }
        assert_eq!(h.calls, 4);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.mean_ns(), 251.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "a",
                job: 0,
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
            },
            Span {
                name: "b",
                job: 0,
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], 7.0);
        assert_eq!(t["b"], 3.0);
    }
}
