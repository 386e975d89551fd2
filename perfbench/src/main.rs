//! Host-performance benchmark of the SWQUE simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ilp_busy|mlp_stall|suite_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a diagnostics line and then, as the last line of stdout, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. See `perfbench/README.md`.

mod host;
mod layers;
mod metrics;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use swque_trace::Json;

use metrics::Class;
use workload::{Outcome, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <ilp_busy|mlp_stall|suite_sweep> --seed <n> \
                     --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(out: &Outcome, class: Class) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed() == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed())),
        ("metrics", out.values.to_json(class)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::swque_knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the simulator's harness reads these \
             silently and they would change the measured work",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let (out, class) = if args.trace {
        let dir = Path::new("perfbench/out");
        (
            layers::traced(args.workload, args.seed, false, Some(dir)),
            Class::PerLayer,
        )
    } else {
        (
            workload::measure(args.workload, args.seed, args.seconds as f64, false),
            Class::EndToEnd,
        )
    };

    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for m in metrics::of_class(class) {
        let value = out.values.get(m.name).unwrap_or(f64::NAN);
        eprintln!(
            "{:<28} {value:>16.6} {:<10} ({} is better)",
            m.name, m.unit, m.better
        );
    }
    let mut diag = vec![
        ("workload".to_string(), Json::from(args.workload.name())),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::from(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host::facts()),
        (
            "failures".to_string(),
            Json::Arr(
                out.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ];
    diag.extend(out.diagnostics.iter().cloned());
    println!("{}", Json::obj([("diagnostics", Json::Obj(diag))]));
    println!("{}", result_line(&out, class));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{lookup, of_class, METRICS};

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload mlp_stall --seed 3 --seconds 10 --trace 1");
        let want = Args {
            workload: Workload::MlpStall,
            seed: 3,
            seconds: 10,
            trace: true,
        };
        assert_eq!(a, Ok(want));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload ilp_busy --seed -1 --seconds 10 --trace 0",
            "--workload ilp_busy --seed 1 --seconds 0 --trace 0",
            "--workload ilp_busy --seed 1 --seconds 10 --trace 2",
            "--workload ilp_busy --seed 1 --seconds 10",
            "--workload ilp_busy --seed 1 --seconds 10 --trace 0 --x 1",
            "--workload ilp_busy --seed 1 --seconds 10 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// `BENCHMARK.json` declares exactly the end-to-end and per-layer rows
    /// of the metric table, with the same units and directions, and
    /// survives a write/parse round trip unchanged.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_table() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(Json::parse(&doc.to_string()).expect("reparses"), doc);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        // `suite_sweep` runs on request only (see README.md).
        assert_eq!(workloads, ["ilp_busy", "mlp_stall"]);
        assert!(workloads.iter().all(|w| Workload::from_name(w).is_some()));

        for (key, class) in [
            ("end_to_end", Class::EndToEnd),
            ("per_layer", Class::PerLayer),
        ] {
            let rows = doc.get(key).and_then(Json::as_arr).unwrap();
            let declared: Vec<&str> = rows
                .iter()
                .map(|r| r.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let table: Vec<&str> = of_class(class).map(|m| m.name).collect();
            assert_eq!(declared, table, "{key} rows differ from the metric table");
            for r in rows {
                let m = lookup(r.get("name").and_then(Json::as_str).unwrap()).unwrap();
                assert_eq!(
                    r.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    r.get("better").and_then(Json::as_str),
                    Some(m.better),
                    "{}",
                    m.name
                );
                let bound = r.get("bound").and_then(Json::as_f64);
                if class == Class::EndToEnd {
                    assert!(
                        bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                        "{} bound",
                        m.name
                    );
                } else {
                    assert_eq!(bound, None, "{} is per-layer and carries no bound", m.name);
                }
            }
        }
        let bounds: Vec<(&str, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.get("name").and_then(Json::as_str).unwrap(),
                    r.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        assert!(
            bounds.iter().all(|&(_, b)| b <= setup),
            "setup_s carries the largest bound"
        );
        assert!(
            of_class(Class::PerLayer).count() <= 128 && of_class(Class::EndToEnd).count() <= 16
        );
        assert!(METRICS
            .iter()
            .all(|m| m.class != Class::Diagnostic || !bounds.iter().any(|(n, _)| *n == m.name)));
    }

    /// A tiny-budget run of every workload emits every declared metric,
    /// with its unit, and no failed operation.
    #[test]
    fn tiny_smoke_of_every_workload_emits_every_metric() {
        for w in Workload::ALL {
            for (out, class) in [
                (workload::measure(w, 5, 0.0, true), Class::EndToEnd),
                (layers::traced(w, 5, true, None), Class::PerLayer),
            ] {
                assert_eq!(out.failed(), 0, "{}: {:?}", w.name(), out.failures);
                assert!(out.attempted >= 1);
                let line = result_line(&out, class).to_string();
                let doc = Json::parse(&line).unwrap();
                assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
                let metrics = doc.get("metrics").unwrap();
                let names: Vec<&str> = metrics.keys();
                assert_eq!(names, of_class(class).map(|m| m.name).collect::<Vec<_>>());
                for m in of_class(class) {
                    let entry = metrics.get(m.name).unwrap();
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                    assert!(
                        entry.get("value").and_then(Json::as_f64).is_some(),
                        "{} has no value",
                        m.name
                    );
                }
            }
        }
    }
}
