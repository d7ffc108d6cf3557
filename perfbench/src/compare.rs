//! Compare mode: two result sets, workload by workload and metric by
//! metric, judged by the rule of the `choosing-metrics` guide (§8).
//!
//! A result set is a file of lines written by `--save`, one run each.
//! Runs of the two sets pair up by workload, trace mode and seed. For
//! each metric the verdict is:
//!
//! * `better` — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and its median beats the parent's by more than
//!   the parent's own quartile spread;
//! * `unresolved` — the parent's spread is wider than the metric's
//!   bound, unless every change run beats every parent run, which rules
//!   out a regression (`same`) but does not show a gain;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound (per-layer metrics, which have none: it loses nine
//!   tenths of the pairs by more than the parent's spread);
//! * `same` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, sorted};

/// `(workload, trace)` → metric → seed → value.
type Runs = BTreeMap<(String, u8), BTreeMap<String, BTreeMap<u64, f64>>>;

/// A metric's direction and optional regression bound.
#[derive(Clone, Copy)]
pub struct Rule {
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
    Same,
}

/// Medians, quartiles and pair wins of one metric on one workload.
pub struct Summary {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    pub pairs: usize,
    pub wins: usize,
    pub verdict: Verdict,
}

fn med_q(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let m = median(&s).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(&s).unwrap_or((m, m));
    (m, q1, q3)
}

/// Judges one metric from its runs on each side, keyed by seed.
#[must_use]
pub fn judge(parent: &BTreeMap<u64, f64>, change: &BTreeMap<u64, f64>, rule: Rule) -> Summary {
    let sign = if rule.higher_is_better { 1.0 } else { -1.0 };
    let pv: Vec<f64> = parent.values().copied().collect();
    let cv: Vec<f64> = change.values().copied().collect();
    let p = med_q(&pv);
    let c = med_q(&cv);
    let (mut pairs, mut wins, mut losses) = (0, 0, 0);
    for (seed, &a) in parent {
        if let Some(&b) = change.get(seed) {
            pairs += 1;
            let gain = sign * (b - a);
            if gain > 0.0 {
                wins += 1;
            } else if gain < 0.0 {
                losses += 1;
            }
        }
    }
    let spread = p.2 - p.1;
    let gain = sign * (c.0 - p.0);
    let nine_tenths = |n: usize| pairs > 0 && n * 10 >= pairs * 9;
    let dominates = {
        let worst_change = cv.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
        let best_parent = pv
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max);
        !pv.is_empty() && !cv.is_empty() && worst_change > best_parent
    };
    let verdict = if nine_tenths(wins) && gain > spread {
        Verdict::Better
    } else if rule.bound.is_some_and(|b| spread > b * p.0.abs()) {
        if dominates {
            Verdict::Same
        } else {
            Verdict::Unresolved
        }
    } else if match rule.bound {
        Some(b) => -gain > b * p.0.abs(),
        None => nine_tenths(losses) && -gain > spread,
    } {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Summary {
        parent: p,
        change: c,
        pairs,
        wins,
        verdict,
    }
}

fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or(format!("{}:{}: no {k}", path.display(), i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let trace = field("trace")?.as_f64().unwrap_or_default() as u8;
        let Some(Value::Obj(metrics)) = field("result")?.get("metrics") else {
            return Err(format!("{}:{}: no metrics", path.display(), i + 1));
        };
        let slot = runs.entry((workload, trace)).or_default();
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().insert(seed, value);
            }
        }
    }
    Ok(runs)
}

/// Metric rules from `BENCHMARK.json`; per-layer metrics carry no bound.
fn load_rules(path: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).and_then(Value::as_arr).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Value::as_str) else {
                continue;
            };
            rules.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

/// `compare <parent> <change>`, with the rules of the repository's
/// `BENCHMARK.json`; returns the exit code (1 when any metric is worse).
pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: perfbench compare <parent.jsonl> <change.jsonl>");
        return 2;
    };
    let bench = crate::repo_root().join("BENCHMARK.json");
    let loaded = (|| {
        Ok::<_, String>((
            load_runs(Path::new(parent))?,
            load_runs(Path::new(change))?,
            load_rules(&bench)?,
        ))
    })();
    let (p_runs, c_runs, rules) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let mut any_worse = false;
    println!(
        "{:16} {:40} {:>12} {:>23} {:>12} {:>23} {:>7}  verdict",
        "workload", "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3", "wins"
    );
    for ((workload, trace), metrics) in &p_runs {
        let Some(c_metrics) = c_runs.get(&(workload.clone(), *trace)) else {
            println!("{workload:16} (trace {trace}) has no runs in {change}");
            continue;
        };
        for (metric, p_vals) in metrics {
            let Some(c_vals) = c_metrics.get(metric) else {
                continue;
            };
            let rule = rules.get(metric).copied().unwrap_or(Rule {
                higher_is_better: false,
                bound: None,
            });
            let s = judge(p_vals, c_vals, rule);
            any_worse |= s.verdict == Verdict::Worse;
            println!(
                "{workload:16} {metric:40} {:>12.4} {:>11.4}..{:<11.4} {:>12.4} {:>11.4}..{:<11.4} {:>3}/{:<3}  {:?}",
                s.parent.0, s.parent.1, s.parent.2, s.change.0, s.change.1, s.change.2, s.wins, s.pairs, s.verdict
            );
        }
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.1),
    };

    #[test]
    fn a_clear_win_on_every_pair_is_better() {
        let p = runs(&[10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]);
        let c = runs(&[8.0, 8.1, 7.9, 8.2, 8.0, 8.1, 7.8, 8.0, 8.1, 8.0]);
        let s = judge(&p, &c, LOWER);
        assert_eq!((s.pairs, s.wins), (10, 10));
        assert_eq!(s.verdict, Verdict::Better);
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse_and_within_it_is_same() {
        let p = runs(&[10.0, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9]);
        let slow = runs(&[12.0, 12.1, 11.9, 12.0, 12.1, 11.9, 12.0, 12.0, 12.1, 11.9]);
        assert_eq!(judge(&p, &slow, LOWER).verdict, Verdict::Worse);
        let close = runs(&[10.3, 10.4, 10.2, 10.3, 10.4, 10.2, 10.3, 10.3, 10.4, 10.2]);
        assert_eq!(judge(&p, &close, LOWER).verdict, Verdict::Same);
        // Higher is better flips the direction.
        let up = Rule {
            higher_is_better: true,
            bound: Some(0.1),
        };
        assert_eq!(judge(&p, &slow, up).verdict, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_dominated() {
        let p = runs(&[5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]);
        let c = runs(&[6.0, 14.0, 9.0, 11.0, 5.0, 15.0, 8.0, 12.0, 7.0, 13.0]);
        assert_eq!(judge(&p, &c, LOWER).verdict, Verdict::Unresolved);
        // A gap wider than the parent's spread is a gain outright.
        let far = runs(&[1.0, 1.5, 1.2, 1.1, 1.3, 1.4, 1.0, 1.2, 1.1, 1.3]);
        assert_eq!(judge(&p, &far, LOWER).verdict, Verdict::Better);
    }

    #[test]
    fn dominating_within_the_parents_spread_is_same_not_better() {
        // A bimodal parent: median 8.2, quartile spread 8.05, far wider
        // than the bound (0.82). Every change run beats every parent run
        // and wins every pair, but the median gap (4.5) is inside the
        // parent's spread: not a regression, and not a shown gain.
        let p = runs(&[4.0, 4.1, 4.2, 4.3, 4.4, 12.0, 12.1, 12.2, 12.3, 12.4]);
        let c = runs(&[3.5, 3.6, 3.7, 3.8, 3.9, 3.5, 3.6, 3.7, 3.8, 3.9]);
        let s = judge(&p, &c, LOWER);
        assert!(s.parent.2 - s.parent.1 > s.parent.0 - s.change.0);
        assert_eq!(s.verdict, Verdict::Same);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let p = runs(&[3.0; 10]);
        let c = runs(&[3.0; 10]);
        let s = judge(&p, &c, LOWER);
        assert_eq!((s.pairs, s.wins), (10, 0));
        assert_eq!(s.verdict, Verdict::Same);
    }
}
