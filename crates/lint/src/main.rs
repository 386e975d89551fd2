//! The `swque-lint` command-line driver.
//!
//! ```text
//! swque-lint --workspace                 # gate the enclosing workspace
//! swque-lint --root DIR                  # gate an explicit tree
//! swque-lint --workspace --write-baseline  # tighten/record the ratchet
//! swque-lint --explain RULE              # rationale + fixture example
//! SWQUE_JSON=lint.json swque-lint --workspace  # also emit swque-lint-v3
//! ```
//!
//! Exit codes: `0` clean (including ratchet slack, which nags on stderr),
//! `1` findings above baseline or a malformed baseline, `2` usage/IO
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use swque_lint::baseline::{ratchet, Baseline};
use swque_lint::report::report_json;
use swque_lint::rules::{explain, RULES};
use swque_lint::{find_workspace_root, scan_workspace};

/// Parsed command line.
struct Args {
    root: Option<PathBuf>,
    workspace: bool,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    json: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swque-lint (--workspace | --root DIR) \
         [--baseline FILE] [--write-baseline] [--json FILE]\n\
         \x20      swque-lint --explain RULE"
    );
    ExitCode::from(2)
}

/// Handles `--explain RULE`: prints the rule's rationale (what it guards,
/// a `bad:` example, a `fix:`) or, for an unknown rule, the rule list.
fn run_explain(rule: &str) -> ExitCode {
    match explain(rule) {
        Some(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("swque-lint: unknown rule {rule:?}; known rules:");
            for r in RULES {
                eprintln!("  {r}");
            }
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        root: None,
        workspace: false,
        baseline: None,
        write_baseline: false,
        json: std::env::var_os("SWQUE_JSON").filter(|v| !v.is_empty()).map(PathBuf::from),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(rule) = it.next() else { return Err(usage()) };
                return Err(run_explain(&rule));
            }
            "--workspace" => args.workspace = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--baseline" => args.baseline = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            "--write-baseline" => args.write_baseline = true,
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or_else(usage)?)),
            _ => return Err(usage()),
        }
    }
    if args.root.is_none() && !args.workspace {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("swque-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("swque-lint: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let scan = match scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swque-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let counts = scan.counts();

    let baseline_path = args.baseline.clone().unwrap_or_else(|| root.join("lint-baseline.json"));
    if args.write_baseline {
        let baseline = Baseline::from_counts(&counts);
        let text = format!("{}\n", baseline.to_json());
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("swque-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("swque-lint: wrote baseline {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("swque-lint: {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Baseline::default(), // no baseline file: zero debt allowed
    };

    let verdict = ratchet(&counts, &baseline);

    if let Some(path) = &args.json {
        let doc = format!("{}\n", report_json(&scan, &counts, &baseline));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("swque-lint: SWQUE_JSON: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[swque-lint] wrote {}", path.display());
    }

    // Per-rule summary, always.
    println!("swque-lint: {} file(s), {} suppressed finding(s)", scan.files_scanned, scan.suppressed);
    for (rule, &count) in &counts {
        let allowed = baseline.allowed(rule);
        let mark = if count > allowed {
            "FAIL"
        } else if count < allowed {
            "slack"
        } else {
            "ok"
        };
        println!("  {rule:<20} {count:>4} / baseline {allowed:>4}  {mark}");
    }

    // Detailed findings only for rules over their allowance: with held
    // debt the full list would drown the one regression that matters.
    for (rule, count, allowed) in &verdict.exceeded {
        eprintln!("swque-lint: rule {rule}: {count} finding(s) exceed baseline {allowed}:");
        for f in scan.findings.iter().filter(|f| f.rule == rule) {
            eprintln!("  {f}");
        }
    }
    for (rule, count, allowed) in &verdict.slack {
        eprintln!(
            "swque-lint: nag: rule {rule} is at {count}, below baseline {allowed} — \
             tighten with `swque-lint --workspace --write-baseline`"
        );
    }

    if verdict.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
