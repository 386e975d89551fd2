//! Lockstep multi-core simulation over a shared memory hierarchy.
//!
//! [`MultiCoreSim`] steps N core pipelines round-robin, one cycle each,
//! over one [`MemoryHierarchy`] built with [`MemoryHierarchy::shared`]:
//! private L1s and MSHR quotas per core, shared L2/prefetcher/DRAM with
//! round-robin channel arbitration (DESIGN.md §11). Core `i` is requester
//! `i`, so every shared-level counter ([`MemoryHierarchy::shared_stats`])
//! and MemEpoch trace event attributes traffic to the core that caused it.
//!
//! # Single-core equivalence
//!
//! [`MultiCoreSim::run`] and [`Core::run`] call the same drive loop (step,
//! progress check, optional skip, progress check — in that order), the
//! latter over a one-element slice. A one-requester shared hierarchy is
//! bit-identical to the owned single-core hierarchy, so `MultiCoreSim`
//! with N=1 produces a byte-identical [`SimResult`] to a standalone
//! [`Core`] — pinned by the `multi_differential` test across all queue
//! kinds.
//!
//! # Quiescence skipping
//!
//! A clock jump is taken only when *every* active core is quiescent (its
//! [`Core::quiescent_horizon`] predicate folds in the shared hierarchy's
//! wake horizon, covering neighbors' in-flight fills) and every active
//! core has skipping enabled. The jump length is the minimum over the
//! cores' horizons, so no core is carried past its own wake-up; cores that
//! have finished (or hit their retirement bound, or froze on a violation)
//! no longer advance and do not constrain the jump.
//!
//! [`Core`]: crate::Core
//! [`Core::run`]: crate::Core::run
//! [`Core::quiescent_horizon`]: crate::Core::quiescent_horizon

use swque_core::IqKind;
use swque_isa::Program;
use swque_mem::{MemoryHierarchy, SharedMemStats};
use swque_trace::TraceHandle;

use crate::config::CoreConfig;
use crate::core::{drive, Pipeline};
use crate::result::SimResult;

/// N cores in lockstep over one shared memory hierarchy.
#[derive(Debug)]
pub struct MultiCoreSim {
    pipelines: Vec<Pipeline>,
    mem: MemoryHierarchy,
}

impl MultiCoreSim {
    /// Creates `workloads.len()` cores — core `i` running `workloads[i]`'s
    /// program with its issue-queue kind — sharing one hierarchy built
    /// from `config.mem`. Every core uses the same `config` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(config: CoreConfig, workloads: &[(IqKind, &Program)]) -> MultiCoreSim {
        assert!(!workloads.is_empty(), "a multi-core sim needs at least one core"); // swque-lint: allow(panic-in-lib) — documented `# Panics` precondition
        let mem = MemoryHierarchy::shared(config.mem, workloads.len());
        let pipelines = workloads
            .iter()
            .enumerate()
            .map(|(i, (kind, program))| Pipeline::new(config.clone(), *kind, program, i))
            .collect();
        MultiCoreSim { pipelines, mem }
    }

    /// The shared memory hierarchy.
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Shared-level contention counters
    /// (see [`MemoryHierarchy::shared_stats`]).
    pub fn shared_stats(&self) -> SharedMemStats {
        self.mem.shared_stats()
    }

    /// Connects an observability sink to every core and to the shared
    /// hierarchy (MemEpoch events carry the triggering requester id).
    pub fn attach_trace(&mut self, trace: &TraceHandle) {
        for p in &mut self.pipelines {
            p.attach_trace(trace);
        }
        self.mem.set_trace(trace);
    }

    /// Enables or disables quiescence skipping on every core (jumps are
    /// all-or-nothing across cores, so a single disabled core pins the
    /// whole sim to per-cycle stepping).
    pub fn set_skip(&mut self, on: bool) {
        for p in &mut self.pipelines {
            p.set_skip(on);
        }
    }

    /// `(jumps_taken, cycles_skipped)` summed over all cores — host-side
    /// observability only, never part of any [`SimResult`].
    pub fn skip_stats(&self) -> (u64, u64) {
        self.pipelines.iter().map(Pipeline::skip_stats).fold((0, 0), |(j, c), (dj, dc)| {
            (j + dj, c + dc)
        })
    }

    /// Runs every core until it retires `max_insts` instructions, finishes
    /// its program, or freezes on an invariant violation; cores that reach
    /// any of those stop stepping while the rest continue. Returns one
    /// [`SimResult`] per core, indexed by requester id.
    pub fn run(&mut self, max_insts: u64) -> Vec<SimResult> {
        drive(&mut self.pipelines, &mut self.mem, max_insts);
        self.pipelines.iter().map(|p| p.result(&self.mem)).collect()
    }
}
