//! The metric table: every number the benchmark prints, with its unit,
//! direction and layer. `BENCHMARK.json` declares the end-to-end and
//! per-layer rows of this table (a self-test keeps the two in step).

use swque_trace::Json;

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Printed by every untraced run and bounded by `BENCHMARK.json`.
    EndToEnd,
    /// Printed by untraced runs on the diagnostics line only: measured on
    /// this host, these repeat run to run worse than a tenth (see
    /// `perfbench/STEADINESS.md`), so they carry no regression bound.
    Diagnostic,
    /// Printed by the traced run.
    PerLayer,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, `<layer>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. Simulated counts are exact checks; their
    /// direction is nominal.
    pub better: &'static str,
    /// Where it is reported.
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, class: Class) -> Metric {
    Metric {
        name,
        unit,
        better,
        class,
    }
}

use Class::{Diagnostic as D, EndToEnd as E, PerLayer as L};

/// Every metric, end-to-end first.
pub const METRICS: &[Metric] = &[
    m("setup_s", "s", "lower", E),
    m("slice_p1_us", "us", "lower", E),
    m("peak_rss_mb", "MiB", "lower", E),
    m("wall_s", "s", "lower", D),
    m("sim_kips", "kinst/s", "higher", D),
    m("slice_p10_us", "us", "lower", D),
    m("slice_p50_us", "us", "lower", D),
    m("slice_tail_us", "us", "lower", D),
    m("workloads.build_s", "s", "lower", L),
    m("isa.emu_new_s", "s", "lower", L),
    m("isa.step_ns", "ns", "lower", L),
    m("isa.est_share", "fraction", "lower", L),
    m("branch.predict_ns", "ns", "lower", L),
    m("branch.mispredicts", "count", "lower", L),
    m("branch.est_share", "fraction", "lower", L),
    m("mem.new_s", "s", "lower", L),
    m("mem.access_ns", "ns", "lower", L),
    m("mem.l1d_misses", "count", "lower", L),
    m("mem.llc_demand_misses", "count", "lower", L),
    m("mem.mshr_stall_cycles", "cycles", "lower", L),
    m("mem.dram_transfers", "count", "lower", L),
    m("mem.est_share", "fraction", "lower", L),
    m("core.dispatch_ns", "ns", "lower", L),
    m("core.wakeup_ns", "ns", "lower", L),
    m("core.select_ns", "ns", "lower", L),
    m("core.circ_pc.dispatch_ns", "ns", "lower", L),
    m("core.circ_pc.wakeup_ns", "ns", "lower", L),
    m("core.circ_pc.select_ns", "ns", "lower", L),
    m("core.age.dispatch_ns", "ns", "lower", L),
    m("core.age.wakeup_ns", "ns", "lower", L),
    m("core.age.select_ns", "ns", "lower", L),
    m("core.issued", "count", "higher", L),
    m("core.wakeups", "count", "lower", L),
    m("core.occupancy_mean", "entries", "lower", L),
    m("core.rv_issues", "count", "lower", L),
    m("core.switches", "count", "lower", L),
    m("core.age_cycle_frac", "fraction", "lower", L),
    m("core.est_share", "fraction", "lower", L),
    m("cpu.new_s", "s", "lower", L),
    m("cpu.step_cycle_ns", "ns", "lower", L),
    m("cpu.horizon_ns", "ns", "lower", L),
    m("cpu.quiescent_frac", "fraction", "higher", L),
    m("cpu.skip_jumps", "count", "higher", L),
    m("cpu.cycles_skipped", "cycles", "higher", L),
    m("cpu.host_ns_per_cycle", "ns", "lower", L),
    m("cpu.host_ns_per_inst", "ns", "lower", L),
    m("cpu.wrong_path_fetched", "count", "lower", L),
    m("cpu.cycles", "cycles", "lower", L),
    m("cpu.retired", "count", "higher", L),
    m("cpu.ipc", "inst/cycle", "higher", L),
    m("trace.overhead_pct", "%", "lower", L),
    m("trace.events", "count", "lower", L),
    m("trace.dropped", "count", "lower", L),
    m("trace.summary_ms", "ms", "lower", L),
    m("trace.json_ms", "ms", "lower", L),
    m("bench.harness_ms", "ms", "lower", L),
];

/// The table rows of one class, in table order.
pub fn of_class(class: Class) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.class == class)
}

/// The table row named `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// True when `name` matches the metric-name grammar `[A-Za-z0-9_.-]+`,
/// starts with a letter or digit, and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values collected by a run, in insertion order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`, which must be a row of [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            lookup(name).is_some() && valid_name(name),
            "metric {name} is not in the metric table"
        );
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `{"<name>": {"value": v, "unit": u}, ...}` for every metric of
    /// `class`, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `class` was never recorded: a missing metric
    /// is a benchmark bug, not a result.
    pub fn to_json(&self, class: Class) -> Json {
        Json::obj(of_class(class).map(|m| {
            let value = self
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} not recorded", m.name));
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(m.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_follows_the_grammar_and_is_unique() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
            assert!(
                matches!(m.better, "lower" | "higher"),
                "bad direction of {}",
                m.name
            );
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
    }

    #[test]
    fn grammar_rejects_what_it_should() {
        for bad in ["", ".x", "-x", "a b", "a/b", "a:b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for good in ["setup_s", "core.circ_pc.select_ns", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good:?} rejected");
        }
    }

    #[test]
    fn every_per_layer_name_names_a_layer_crate() {
        const LAYERS: [&str; 8] = [
            "workloads",
            "isa",
            "branch",
            "mem",
            "core",
            "cpu",
            "trace",
            "bench",
        ];
        for m in of_class(Class::PerLayer) {
            let layer = m.name.split('.').next().unwrap_or_default();
            assert!(
                LAYERS.contains(&layer),
                "{} is not under a crate name",
                m.name
            );
        }
    }

    #[test]
    fn setup_time_is_end_to_end() {
        let setup = lookup("setup_s").unwrap();
        assert_eq!(
            (setup.unit, setup.better, setup.class),
            ("s", "lower", Class::EndToEnd)
        );
    }
}
