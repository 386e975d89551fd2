//! The ratchet baseline: committed per-rule debt that may only shrink.
//!
//! `lint-baseline.json` (schema `swque-lint-baseline-v3`) records, per
//! rule, how many findings the shipped tree is allowed to contain. The
//! gate semantics are a one-way ratchet:
//!
//! * count **above** baseline → hard failure (new debt is rejected);
//! * count **below** baseline → nag (the baseline can and should be
//!   tightened with `--write-baseline`), but the build stays green;
//! * count **equal** → clean.
//!
//! A missing baseline file means zero debt everywhere — that is what makes
//! the negative self-check in `scripts/verify.sh` work: a scratch tree
//! with one injected violation and no baseline must fail.

use std::collections::BTreeMap;

use swque_trace::Json;

use crate::rules::is_known_rule;

/// Schema string written into the baseline file.
pub const BASELINE_SCHEMA: &str = "swque-lint-baseline-v3";

/// Per-rule allowed finding counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Rule name → allowed count. Rules absent from the map are held to
    /// zero. `BTreeMap` keeps serialization order deterministic.
    pub rules: BTreeMap<String, u64>,
}

impl Baseline {
    /// The allowed count for `rule` (zero if unlisted).
    pub fn allowed(&self, rule: &str) -> u64 {
        self.rules.get(rule).copied().unwrap_or(0)
    }

    /// Parses a baseline document. Unknown rule names are an error — a
    /// typo in the baseline would otherwise silently hold no debt.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("baseline parse error: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != BASELINE_SCHEMA {
            return Err(format!("baseline schema {schema:?}, expected {BASELINE_SCHEMA:?}"));
        }
        let entries = doc
            .get("rules")
            .and_then(Json::as_obj)
            .ok_or("baseline: `rules` is not an object")?;
        let mut rules = BTreeMap::new();
        for (name, count) in entries {
            if !is_known_rule(name) {
                return Err(format!("baseline names unknown rule {name:?}"));
            }
            let n = count
                .as_u64()
                .ok_or_else(|| format!("baseline rule {name:?}: count is not an integer"))?;
            rules.insert(name.clone(), n);
        }
        Ok(Baseline { rules })
    }

    /// Serializes the baseline (stable key order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(BASELINE_SCHEMA)),
            (
                "rules",
                Json::Obj(
                    self.rules
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Builds a baseline holding exactly `counts` (used by
    /// `--write-baseline`). Zero-count rules are recorded too, so the file
    /// documents the full rule set.
    pub fn from_counts(counts: &BTreeMap<&'static str, u64>) -> Baseline {
        Baseline {
            rules: counts.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        }
    }
}

/// Outcome of comparing current counts against the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ratchet {
    /// Rules whose count exceeds the baseline: `(rule, count, allowed)`.
    pub exceeded: Vec<(String, u64, u64)>,
    /// Rules whose count dropped below the baseline: `(rule, count, allowed)`.
    pub slack: Vec<(String, u64, u64)>,
}

impl Ratchet {
    /// True when no rule exceeds its baseline.
    pub fn ok(&self) -> bool {
        self.exceeded.is_empty()
    }
}

/// Compares per-rule counts against the committed baseline.
pub fn ratchet(counts: &BTreeMap<&'static str, u64>, baseline: &Baseline) -> Ratchet {
    let mut out = Ratchet { exceeded: Vec::new(), slack: Vec::new() };
    for (&rule, &count) in counts {
        let allowed = baseline.allowed(rule);
        if count > allowed {
            out.exceeded.push((rule.to_string(), count, allowed));
        } else if count < allowed {
            out.slack.push((rule.to_string(), count, allowed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&'static str, u64)]) -> BTreeMap<&'static str, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn round_trips_through_json() {
        let b = Baseline::from_counts(&counts(&[("panic-in-lib", 7), ("no-unsafe", 0)]));
        let back = Baseline::parse(&b.to_json().to_string()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.allowed("panic-in-lib"), 7);
        assert_eq!(back.allowed("wall-clock"), 0, "unlisted rules are held to zero");
    }

    #[test]
    fn unknown_rule_or_schema_is_rejected() {
        let bad = r#"{"schema":"swque-lint-baseline-v3","rules":{"made-up":1}}"#;
        assert!(Baseline::parse(bad).unwrap_err().contains("unknown rule"));
        let bad = r#"{"schema":"v0","rules":{}}"#;
        assert!(Baseline::parse(bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn ratchet_directions() {
        let base = Baseline::from_counts(&counts(&[("panic-in-lib", 5)]));
        let r = ratchet(&counts(&[("panic-in-lib", 6)]), &base);
        assert!(!r.ok());
        assert_eq!(r.exceeded, vec![("panic-in-lib".to_string(), 6, 5)]);
        let r = ratchet(&counts(&[("panic-in-lib", 3)]), &base);
        assert!(r.ok());
        assert_eq!(r.slack, vec![("panic-in-lib".to_string(), 3, 5)]);
        let r = ratchet(&counts(&[("panic-in-lib", 5)]), &base);
        assert!(r.ok() && r.slack.is_empty());
    }

    #[test]
    fn missing_baseline_means_zero_debt() {
        let r = ratchet(&counts(&[("wall-clock", 1)]), &Baseline::default());
        assert_eq!(r.exceeded, vec![("wall-clock".to_string(), 1, 0)]);
    }
}
