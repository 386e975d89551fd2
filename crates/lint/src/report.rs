//! The versioned `swque-lint-v3` JSON report.
//!
//! Shape (all keys always present, validated by the `check_json` binary in
//! `swque-bench` and documented field-by-field in DESIGN.md §8):
//!
//! ```json
//! {
//!   "schema": "swque-lint-v3",
//!   "files_scanned": 123,
//!   "suppressed": 2,
//!   "status": "ok",
//!   "rules": [ {"rule": "no-unsafe", "count": 0, "baseline": 0}, … ],
//!   "findings": [ {"rule": "…", "rule_class": "token", "file": "…",
//!                  "line": 1, "col": 5, "message": "…",
//!                  "domain_from": "", "domain_to": "", "chain": ""}, … ]
//! }
//! ```
//!
//! `status` is `"ok"` when every rule is at or under its baseline and
//! `"baseline-exceeded"` otherwise; `rules` lists every known rule in
//! stable order with its current count and its baseline allowance.
//!
//! Findings carry `rule_class` (`token`, `ast`, `reachability` or
//! `dataflow`; see [`crate::rules::rule_class`]) naming the analysis
//! layer, `domain_from`/`domain_to` (the rendered cycle domains of a
//! dataflow finding, empty for other rules) and `chain` (the pub-to-site
//! reachability hop chain of a `panic-in-lib` finding, empty when there
//! is none).

use std::collections::BTreeMap;

use swque_trace::Json;

use crate::baseline::Baseline;
use crate::rules::{rule_class, RULES};
use crate::Scan;

/// Schema identifier written into every report.
pub const LINT_SCHEMA: &str = "swque-lint-v3";

/// Serializes a scan plus its ratchet verdict as a `swque-lint-v3`
/// document.
pub fn report_json(scan: &Scan, counts: &BTreeMap<&'static str, u64>, baseline: &Baseline) -> Json {
    let ok = counts.iter().all(|(rule, &n)| n <= baseline.allowed(rule));
    let rules = RULES
        .iter()
        .map(|&rule| {
            Json::obj([
                ("rule", Json::from(rule)),
                ("count", Json::from(counts.get(rule).copied().unwrap_or(0))),
                ("baseline", Json::from(baseline.allowed(rule))),
            ])
        })
        .collect();
    let findings = scan
        .findings
        .iter()
        .map(|f| {
            Json::obj([
                ("rule", Json::from(f.rule)),
                ("rule_class", Json::from(rule_class(f.rule))),
                ("file", Json::from(f.file.as_str())),
                ("line", Json::from(u64::from(f.line))),
                ("col", Json::from(u64::from(f.col))),
                ("message", Json::from(f.message.as_str())),
                ("domain_from", Json::from(f.domain_from.as_str())),
                ("domain_to", Json::from(f.domain_to.as_str())),
                ("chain", Json::from(f.chain.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::from(LINT_SCHEMA)),
        ("files_scanned", Json::from(scan.files_scanned as u64)),
        ("suppressed", Json::from(scan.suppressed as u64)),
        ("status", Json::from(if ok { "ok" } else { "baseline-exceeded" })),
        ("rules", Json::Arr(rules)),
        ("findings", Json::Arr(findings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    const V3_FINDING_KEYS: [&str; 9] = [
        "rule",
        "rule_class",
        "file",
        "line",
        "col",
        "message",
        "domain_from",
        "domain_to",
        "chain",
    ];

    fn scan_with(findings: Vec<Finding>) -> Scan {
        Scan { findings, suppressed: 1, files_scanned: 3 }
    }

    #[test]
    fn report_shape_is_stable_and_parses() {
        let mut f = Finding::new(
            "wall-clock",
            "crates/core/src/x.rs".to_string(),
            4,
            9,
            "`Instant` outside the sanctioned timing harness".to_string(),
        );
        f.chain = String::new();
        let scan = scan_with(vec![f]);
        let doc = report_json(&scan, &scan.counts(), &Baseline::default());
        assert_eq!(
            doc.keys(),
            vec!["schema", "files_scanned", "suppressed", "status", "rules", "findings"],
        );
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(LINT_SCHEMA));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("baseline-exceeded"));
        let rules = doc.get("rules").and_then(Json::as_arr).unwrap();
        assert_eq!(rules.len(), RULES.len());
        for r in rules {
            assert_eq!(r.keys(), vec!["rule", "count", "baseline"]);
        }
        let findings = doc.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings[0].keys(), V3_FINDING_KEYS.to_vec());
        assert_eq!(findings[0].get("rule_class").and_then(Json::as_str), Some("token"));
        assert_eq!(findings[0].get("domain_from").and_then(Json::as_str), Some(""));
        // Round-trips through the in-tree parser.
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn dataflow_findings_carry_their_domain_pair() {
        let mut f = Finding::new(
            "cross-domain-call",
            "crates/mem/src/hierarchy.rs".to_string(),
            360,
            40,
            "completion stamp passed as launch".to_string(),
        );
        f.domain_from = "CycleStamp(completion)".to_string();
        f.domain_to = "CycleStamp(launch)".to_string();
        let scan = scan_with(vec![f]);
        let doc = report_json(&scan, &scan.counts(), &Baseline::default());
        let j = &doc.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(j.get("rule_class").and_then(Json::as_str), Some("dataflow"));
        assert_eq!(
            j.get("domain_from").and_then(Json::as_str),
            Some("CycleStamp(completion)")
        );
        assert_eq!(j.get("domain_to").and_then(Json::as_str), Some("CycleStamp(launch)"));
    }

    #[test]
    fn status_ok_when_baseline_holds_the_debt() {
        let scan = scan_with(vec![Finding::new(
            "panic-in-lib",
            "crates/bench/src/output.rs".to_string(),
            1,
            1,
            "x".to_string(),
        )]);
        let counts = scan.counts();
        let baseline = Baseline::from_counts(&counts);
        let doc = report_json(&scan, &counts, &baseline);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    }
}
