//! Declarative SLO rules evaluated against a [`Tsdb`], with hysteresis
//! and multi-window burn-rate semantics.
//!
//! A [`SloRule`] names a [`Query`] over the time-series store, a
//! comparison against a threshold, and two hysteresis knobs: the breach
//! must hold for `for_windows` consecutive evaluations before the rule
//! transitions to Firing, and clear for `clear_windows` consecutive
//! evaluations before it resolves — so a single noisy window neither
//! pages nor flaps an alert that is genuinely on.
//!
//! Queries that evaluate to "no data" (the series never appeared, or a
//! latency histogram was idle over the window) count as *clear*: an SLO
//! over a series that is not being exercised is vacuously met. Rules
//! whose job is to detect silence should instead threshold a `Sum`
//! `Below` a floor on a series that is known to exist.

use crate::tsdb::Tsdb;

/// How a rule's measured value compares against its threshold to breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when `value > threshold`.
    Above,
    /// Breach when `value < threshold`.
    Below,
}

/// What a rule measures each evaluation tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Total increments of a counter over the trailing `windows` windows.
    Sum {
        /// Counter series name.
        counter: String,
        /// Trailing window count.
        windows: usize,
    },
    /// `Σ parts / Σ total` over the trailing `windows` windows — e.g.
    /// shed ratio (`shed.* / offered`) or cache hit ratio
    /// (`hit / (hit + miss)`). No data until every `total` series has
    /// appeared and the denominator is non-zero in the window.
    Ratio {
        /// Numerator counter series (summed).
        parts: Vec<String>,
        /// Denominator counter series (summed).
        total: Vec<String>,
        /// Trailing window count.
        windows: usize,
    },
    /// Interpolated quantile of a histogram's activity over the trailing
    /// `windows` windows. No data when the histogram was idle.
    Quantile {
        /// Histogram series name.
        histogram: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Trailing window count.
        windows: usize,
    },
    /// Multi-window error-budget burn rate: how many times faster than
    /// `budget` the ratio `Σ bad / Σ total` is burning, evaluated over
    /// *both* a short and a long trailing window, taking the **minimum**
    /// of the two burns. Thresholding that minimum `Above` x implements
    /// the classic dual-window alert — the long window proves sustained
    /// burn, the short window makes the alert resolve quickly once the
    /// burn stops — as a single scalar.
    BurnRate {
        /// Counters measuring budget-consuming events (summed).
        bad: Vec<String>,
        /// Counters measuring all events (summed).
        total: Vec<String>,
        /// Error budget as a fraction of total, e.g. `0.01` for 1%.
        budget: f64,
        /// Short trailing window count.
        short_windows: usize,
        /// Long trailing window count.
        long_windows: usize,
    },
}

impl Query {
    /// Evaluates the query against `tsdb`; `None` means no data.
    pub(crate) fn evaluate(&self, tsdb: &Tsdb) -> Option<f64> {
        match self {
            Query::Sum { counter, windows } => {
                tsdb.counter_window(counter, *windows).map(|v| v as f64)
            }
            Query::Ratio {
                parts,
                total,
                windows,
            } => ratio(tsdb, parts, total, *windows),
            Query::Quantile {
                histogram,
                q,
                windows,
            } => tsdb
                .quantile_window(histogram, *q, *windows)
                .map(|v| v as f64),
            Query::BurnRate {
                bad,
                total,
                budget,
                short_windows,
                long_windows,
            } => {
                if *budget <= 0.0 {
                    return None;
                }
                let short = ratio(tsdb, bad, total, *short_windows)? / budget;
                let long = ratio(tsdb, bad, total, *long_windows)? / budget;
                Some(short.min(long))
            }
        }
    }
}

/// `Σ parts / Σ total` over the trailing windows; `None` when any total
/// series is unknown or the denominator is zero.
fn ratio(tsdb: &Tsdb, parts: &[String], total: &[String], windows: usize) -> Option<f64> {
    let mut den = 0u64;
    for name in total {
        den += tsdb.counter_window(name, windows)?;
    }
    if den == 0 {
        return None;
    }
    let num: u64 = parts
        .iter()
        .map(|name| tsdb.counter_window(name, windows).unwrap_or(0))
        .sum();
    Some(num as f64 / den as f64)
}

/// How bad a firing rule is for the replica that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: recorded in the timeline, does not change health.
    Info,
    /// The replica is degraded while this fires.
    Warn,
    /// The replica is unhealthy while this fires.
    Critical,
}

/// One declarative SLO rule.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Stable rule name, e.g. `"gateway-shed-burn"`; appears in alerts,
    /// exposition, and timelines.
    pub name: String,
    /// What to measure.
    pub query: Query,
    /// Breach direction.
    pub cmp: Cmp,
    /// Threshold the measured value is compared against.
    pub threshold: f64,
    /// Consecutive breached evaluations before Firing (min 1).
    pub for_windows: usize,
    /// Consecutive clear evaluations before Resolved (min 1).
    pub clear_windows: usize,
    /// Health impact while firing.
    pub severity: Severity,
}

impl SloRule {
    /// True when `value` breaches this rule's threshold.
    fn breached(&self, value: f64) -> bool {
        match self.cmp {
            Cmp::Above => value > self.threshold,
            Cmp::Below => value < self.threshold,
        }
    }
}

/// Alert lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No breach.
    Inactive,
    /// Breached, but not yet for `for_windows` consecutive evaluations.
    Pending,
    /// The alert is on.
    Firing,
}

/// A state transition emitted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Pending → Firing: the breach held for `for_windows` evaluations.
    Firing,
    /// Firing → Inactive: the rule cleared for `clear_windows`
    /// evaluations.
    Resolved,
}

/// One entry of the alert timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Rule that transitioned.
    pub rule: String,
    /// Logical tick of the evaluation that caused the transition.
    pub tick: u64,
    /// Which transition.
    pub transition: Transition,
    /// The measured value at the transition (last breached value for
    /// Resolved, where the clearing evaluation may have had no data).
    pub(crate) value: f64,
    /// The rule's severity.
    pub(crate) severity: Severity,
}

/// Per-rule runtime state.
#[derive(Debug, Clone)]
struct RuleRuntime {
    state: AlertState,
    breaches: usize,
    clears: usize,
    last_value: f64,
}

/// Evaluates a rule set against a `Tsdb` each tick, maintaining alert
/// states and an append-only timeline of transitions.
#[derive(Debug)]
pub struct RuleEngine {
    rules: Vec<SloRule>,
    runtime: Vec<RuleRuntime>,
    timeline: Vec<Alert>,
}

impl RuleEngine {
    /// An engine over `rules`.
    pub(crate) fn new(rules: Vec<SloRule>) -> RuleEngine {
        let runtime = rules
            .iter()
            .map(|_| RuleRuntime {
                state: AlertState::Inactive,
                breaches: 0,
                clears: 0,
                last_value: 0.0,
            })
            .collect();
        RuleEngine {
            rules,
            runtime,
            timeline: Vec::new(),
        }
    }

    /// Evaluates every rule against `tsdb` at logical `tick`, returning
    /// the transitions this evaluation produced (also appended to the
    /// timeline).
    pub(crate) fn evaluate(&mut self, tick: u64, tsdb: &Tsdb) -> Vec<Alert> {
        let mut out = Vec::new();
        for (rule, rt) in self.rules.iter().zip(self.runtime.iter_mut()) {
            let value = rule.query.evaluate(tsdb);
            let breached = value.map(|v| rule.breached(v)).unwrap_or(false);
            if breached {
                rt.last_value = value.unwrap_or(rt.last_value);
                rt.breaches += 1;
                rt.clears = 0;
                if rt.state != AlertState::Firing {
                    if rt.breaches >= rule.for_windows.max(1) {
                        rt.state = AlertState::Firing;
                        let alert = Alert {
                            rule: rule.name.clone(),
                            tick,
                            transition: Transition::Firing,
                            value: rt.last_value,
                            severity: rule.severity,
                        };
                        self.timeline.push(alert.clone());
                        out.push(alert);
                    } else {
                        rt.state = AlertState::Pending;
                    }
                }
            } else {
                rt.breaches = 0;
                rt.clears += 1;
                match rt.state {
                    AlertState::Firing => {
                        if rt.clears >= rule.clear_windows.max(1) {
                            rt.state = AlertState::Inactive;
                            let alert = Alert {
                                rule: rule.name.clone(),
                                tick,
                                transition: Transition::Resolved,
                                value: rt.last_value,
                                severity: rule.severity,
                            };
                            self.timeline.push(alert.clone());
                            out.push(alert);
                        }
                    }
                    AlertState::Pending => rt.state = AlertState::Inactive,
                    AlertState::Inactive => {}
                }
            }
        }
        out
    }

    /// The rules this engine evaluates.
    pub(crate) fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Current state of the named rule, if it exists.
    pub(crate) fn state(&self, rule: &str) -> Option<AlertState> {
        self.rules
            .iter()
            .position(|r| r.name == rule)
            .map(|i| self.runtime[i].state)
    }

    /// Rules currently firing, with their last breached values.
    pub(crate) fn firing(&self) -> Vec<(&SloRule, f64)> {
        self.rules
            .iter()
            .zip(&self.runtime)
            .filter(|(_, rt)| rt.state == AlertState::Firing)
            .map(|(r, rt)| (r, rt.last_value))
            .collect()
    }

    /// The worst severity among currently firing rules, if any fire.
    pub(crate) fn worst_firing(&self) -> Option<Severity> {
        self.firing().iter().map(|(r, _)| r.severity).max()
    }

    /// The full transition timeline, oldest first.
    pub fn timeline(&self) -> &[Alert] {
        &self.timeline
    }

    /// Appends an externally detected transition (cluster-rollup facts
    /// like digest divergence are computed outside the per-replica store
    /// but belong on the same timeline).
    pub(crate) fn push_external(&mut self, alert: Alert) {
        self.timeline.push(alert);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_telemetry::Registry;

    fn rule(query: Query, cmp: Cmp, threshold: f64, forw: usize, clearw: usize) -> SloRule {
        SloRule {
            name: "r".into(),
            query,
            cmp,
            threshold,
            for_windows: forw,
            clear_windows: clearw,
            severity: Severity::Warn,
        }
    }

    #[test]
    fn threshold_rule_fires_after_for_windows_and_resolves_after_clear() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        let mut engine = RuleEngine::new(vec![rule(
            Query::Sum {
                counter: "errors".into(),
                windows: 1,
            },
            Cmp::Above,
            0.0,
            2,
            2,
        )]);

        // Window 1: breach #1 → Pending, no transition yet.
        sink.incr("errors");
        tsdb.sample(1, registry.snapshot());
        assert!(engine.evaluate(1, &tsdb).is_empty());
        assert_eq!(engine.state("r"), Some(AlertState::Pending));

        // Window 2: breach #2 → Firing.
        sink.incr("errors");
        tsdb.sample(2, registry.snapshot());
        let alerts = engine.evaluate(2, &tsdb);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].transition, Transition::Firing);
        assert_eq!(alerts[0].tick, 2);

        // One quiet window: still firing (hysteresis).
        tsdb.sample(3, registry.snapshot());
        assert!(engine.evaluate(3, &tsdb).is_empty());
        assert_eq!(engine.state("r"), Some(AlertState::Firing));

        // Second quiet window: resolved.
        tsdb.sample(4, registry.snapshot());
        let alerts = engine.evaluate(4, &tsdb);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].transition, Transition::Resolved);
        assert_eq!(engine.state("r"), Some(AlertState::Inactive));
        assert_eq!(engine.timeline().len(), 2);
    }

    #[test]
    fn single_window_blip_never_fires() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        let mut engine = RuleEngine::new(vec![rule(
            Query::Sum {
                counter: "errors".into(),
                windows: 1,
            },
            Cmp::Above,
            0.0,
            2,
            1,
        )]);
        sink.incr("errors");
        tsdb.sample(1, registry.snapshot());
        engine.evaluate(1, &tsdb);
        tsdb.sample(2, registry.snapshot());
        engine.evaluate(2, &tsdb);
        assert_eq!(engine.state("r"), Some(AlertState::Inactive));
        assert!(engine.timeline().is_empty());
    }

    #[test]
    fn ratio_rule_measures_shed_fraction() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        let query = Query::Ratio {
            parts: vec!["shed.a".into(), "shed.b".into()],
            total: vec!["offered".into()],
            windows: 2,
        };
        sink.add("offered", 10);
        sink.add("shed.a", 1);
        sink.add("shed.b", 2);
        tsdb.sample(1, registry.snapshot());
        assert!((query.evaluate(&tsdb).unwrap() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn no_data_is_clear_not_breach() {
        let registry = Registry::new();
        let mut tsdb = Tsdb::new(4);
        tsdb.sample(1, registry.snapshot());
        let mut engine = RuleEngine::new(vec![rule(
            Query::Quantile {
                histogram: "lat".into(),
                q: 0.99,
                windows: 1,
            },
            Cmp::Above,
            10.0,
            1,
            1,
        )]);
        assert!(engine.evaluate(1, &tsdb).is_empty());
        assert_eq!(engine.state("r"), Some(AlertState::Inactive));
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(16);
        let query = Query::BurnRate {
            bad: vec!["bad".into()],
            total: vec!["all".into()],
            budget: 0.01,
            short_windows: 1,
            long_windows: 4,
        };
        // Three clean windows then one hot one: the long window dilutes
        // the burn, so min(short, long) reflects the sustained view.
        for t in 1..=3u64 {
            sink.add("all", 100);
            tsdb.sample(t, registry.snapshot());
        }
        sink.add("all", 100);
        sink.add("bad", 50);
        tsdb.sample(4, registry.snapshot());
        let burn = query.evaluate(&tsdb).unwrap();
        // short burn = (50/100)/0.01 = 50; long = (50/400)/0.01 = 12.5.
        assert!((burn - 12.5).abs() < 1e-9, "burn = {burn}");

        // Sustained burn across the long window pushes the min up.
        for t in 5..=8u64 {
            sink.add("all", 100);
            sink.add("bad", 50);
            tsdb.sample(t, registry.snapshot());
        }
        assert!(query.evaluate(&tsdb).unwrap() >= 50.0 - 1e-9);
    }

    #[test]
    fn below_rule_detects_collapse() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        let mut engine = RuleEngine::new(vec![rule(
            Query::Ratio {
                parts: vec!["hit".into()],
                total: vec!["hit".into(), "miss".into()],
                windows: 1,
            },
            Cmp::Below,
            0.5,
            1,
            1,
        )]);
        sink.add("hit", 9);
        sink.add("miss", 1);
        tsdb.sample(1, registry.snapshot());
        assert!(engine.evaluate(1, &tsdb).is_empty(), "90% hits is healthy");
        sink.add("miss", 50);
        tsdb.sample(2, registry.snapshot());
        let alerts = engine.evaluate(2, &tsdb);
        assert_eq!(alerts.len(), 1, "hit collapse fires");
    }
}
