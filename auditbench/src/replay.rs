//! The traced solve: `OapSolver::solve` recomposed from its public
//! pieces with a timer around each layer boundary.
//!
//! A traced solve runs the same steps as the solver's own pipeline —
//! `dedup_actions`, `sample_bank`, a `DetectionEstimator`, the planner
//! tier's inner evaluator, `Ishm::solve` — with the evaluator wrapped so
//! every `evaluate`/`prime`/`solve_full` call is timed and logged. The
//! `Pal` engine and the master LP sit inside the evaluator, out of reach
//! of a wrapper, so a second pass replays the logged calls on a fresh
//! engine through `PayoffMatrix::build_with_engine`, `PalEngine` batches
//! and `MasterSolver::solve`, timing each. The replay reissues the same
//! engine queries in the same order (the CGGS tier through a copy of the
//! paper's Algorithm 1 greedy pricing), so its `Pal` work, cache
//! behaviour and LP sizes are the solve's own; every replayed objective
//! is compared bit for bit with the value the evaluator returned, and a
//! difference is counted in `trace.replay_mismatches`. One step is not
//! replayed: the decomposed tier's best-response refinement inside
//! `solve_full` (one call per solve), whose final master is re-solved
//! over the refined column set instead.

use crate::stats::{ms, timed};
use alert_audit::game::cggs::CggsConfig;
use alert_audit::game::detection::{CacheStats, DetectionEstimator, PalEngine, PalQuery};
use alert_audit::game::error::GameError;
use alert_audit::game::ishm::{
    CggsEvaluator, ExactEvaluator, Ishm, IshmConfig, IshmOutcome, ThresholdEvaluator,
};
use alert_audit::game::master::{MasterSolution, MasterSolver};
use alert_audit::game::model::GameSpec;
use alert_audit::game::ordering::AuditOrder;
use alert_audit::game::payoff::{action_utility, PayoffMatrix};
use alert_audit::game::planner::{DecomposedEvaluator, SolveStrategy};
use alert_audit::game::solver::{OapSolver, SolverConfig};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// One logged evaluator call, with the values it returned.
enum Call {
    Evaluate {
        thresholds: Vec<f64>,
        value: f64,
    },
    Prime {
        candidates: Vec<Vec<f64>>,
    },
    SolveFull {
        thresholds: Vec<f64>,
        value: f64,
        orders: Vec<AuditOrder>,
    },
}

/// An inner evaluator with a stopwatch and a call log.
struct Traced<E> {
    inner: E,
    calls: Vec<Call>,
    busy: Duration,
    evals: usize,
}

impl<E> Traced<E> {
    fn new(inner: E) -> Self {
        Self {
            inner,
            calls: Vec::new(),
            busy: Duration::ZERO,
            evals: 0,
        }
    }
}

impl<E: ThresholdEvaluator> ThresholdEvaluator for Traced<E> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        let (out, d) = timed(|| self.inner.evaluate(thresholds));
        self.busy += d;
        self.evals += 1;
        let value = out?;
        self.calls.push(Call::Evaluate {
            thresholds: thresholds.to_vec(),
            value,
        });
        Ok(value)
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let (out, d) = timed(|| self.inner.solve_full(thresholds));
        self.busy += d;
        let (master, orders) = out?;
        self.calls.push(Call::SolveFull {
            thresholds: thresholds.to_vec(),
            value: master.value,
            orders: orders.clone(),
        });
        Ok((master, orders))
    }

    fn prime(&mut self, candidates: &[Vec<f64>]) -> Result<(), GameError> {
        let (out, d) = timed(|| self.inner.prime(candidates));
        self.busy += d;
        out?;
        self.calls.push(Call::Prime {
            candidates: candidates.to_vec(),
        });
        Ok(())
    }
}

/// Layer figures of one traced solve.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub bank_ms: f64,
    /// Heap bytes the sample bank holds, and the counts it stores.
    pub bank_bytes: f64,
    pub bank_counts: f64,
    pub pal_ms: f64,
    pub lp_ms: f64,
    pub lp_calls: u64,
    pub lp_pivots: u64,
    pub inner_ms: f64,
    pub inner_evals: u64,
    pub ishm_self_ms: f64,
    pub explored: u64,
    pub improvements: u64,
    pub cache: CacheStats,
    pub replay_mismatches: u64,
}

impl Layers {
    /// Accumulate another solve's figures.
    pub fn add(&mut self, o: &Layers) {
        self.bank_ms += o.bank_ms;
        self.bank_bytes += o.bank_bytes;
        self.bank_counts += o.bank_counts;
        self.pal_ms += o.pal_ms;
        self.lp_ms += o.lp_ms;
        self.lp_calls += o.lp_calls;
        self.lp_pivots += o.lp_pivots;
        self.inner_ms += o.inner_ms;
        self.inner_evals += o.inner_evals;
        self.ishm_self_ms += o.ishm_self_ms;
        self.explored += o.explored;
        self.improvements += o.improvements;
        self.cache.absorb(&o.cache);
        self.replay_mismatches += o.replay_mismatches;
    }
}

/// A traced solve: its outcome (for comparison with the untraced solve),
/// its wall time up to the committed outcome, and its layer figures.
pub struct TracedSolve {
    pub outcome: IshmOutcome,
    pub strategy: SolveStrategy,
    pub solve_ms: f64,
    pub layers: Layers,
}

/// Solve `spec` under `config` the way `OapSolver::solve` does (no warm
/// start, no work budget, no shared cache), timing every layer.
pub fn traced_solve(spec: &GameSpec, config: &SolverConfig) -> Result<TracedSolve, GameError> {
    assert!(
        config.work_budget.is_none(),
        "the trace composes unbudgeted solves"
    );
    let (composed, solve) = timed(|| -> Result<_, GameError> {
        spec.validate()?;
        let working = if config.dedup_actions {
            spec.dedup_actions()
        } else {
            spec.clone()
        };
        let live = crate::live_heap_bytes();
        let (bank, bank_d) = timed(|| working.sample_bank(config.n_samples, config.seed));
        let bank_bytes = crate::live_heap_bytes().saturating_sub(live);
        let mut layers = Layers {
            bank_ms: ms(bank_d),
            bank_bytes: bank_bytes as f64,
            bank_counts: (bank.n_samples() * bank.n_types()) as f64,
            ..Layers::default()
        };
        let strategy = OapSolver::new(config.clone()).strategy_for(spec, &working);
        let ishm = Ishm::new(IshmConfig {
            epsilon: config.epsilon,
            max_level: strategy.level_cap(),
            ..IshmConfig::default()
        });
        let est = DetectionEstimator::new(&working, &bank, config.detection);
        let (outcome, cache, calls, pool, busy, evals, ishm_d) = match strategy {
            SolveStrategy::Exact => {
                let mut ev =
                    Traced::new(ExactEvaluator::with_threads(&working, est, config.threads));
                let (out, d) = timed(|| ishm.solve(&working, &mut ev));
                let cache = ev.inner.engine().cache_stats();
                let pool = Some(AuditOrder::enumerate_all(working.n_types()));
                (out?, cache, ev.calls, pool, ev.busy, ev.evals, d)
            }
            SolveStrategy::Cggs => {
                let cggs = CggsConfig {
                    threads: config.threads,
                    ..CggsConfig::default()
                };
                let mut ev = Traced::new(CggsEvaluator::new(&working, est, cggs));
                let (out, d) = timed(|| ishm.solve(&working, &mut ev));
                let cache = ev.inner.engine().cache_stats();
                (out?, cache, ev.calls, None, ev.busy, ev.evals, d)
            }
            SolveStrategy::Decomposed { .. } => {
                let mut ev = Traced::new(DecomposedEvaluator::new(
                    &working,
                    est,
                    config.threads,
                    Vec::new(),
                ));
                let (out, d) = timed(|| ishm.solve(&working, &mut ev));
                let cache = ev.inner.engine().cache_stats();
                let pool = Some(ev.inner.pool().to_vec());
                (out?, cache, ev.calls, pool, ev.busy, ev.evals, d)
            }
        };
        layers.inner_ms = ms(busy);
        layers.inner_evals = evals as u64;
        layers.ishm_self_ms = ms(ishm_d.saturating_sub(busy));
        Ok((outcome, strategy, cache, layers, calls, working, bank, pool))
    });
    let (outcome, strategy, cache, mut layers, calls, working, bank, pool) = composed?;
    let solve_ms = ms(solve);
    layers.explored = outcome.stats.thresholds_explored as u64;
    layers.improvements = outcome.stats.improvements as u64;
    layers.cache = cache;

    let est = DetectionEstimator::new(&working, &bank, config.detection);
    let mut replay = Replay {
        spec: &working,
        engine: PalEngine::new(est, config.threads),
        memo: HashMap::new(),
        pal: Duration::ZERO,
        lp: Duration::ZERO,
        lp_calls: 0,
        lp_pivots: 0,
        mismatches: 0,
    };
    replay.run(&calls, pool.as_deref())?;
    layers.pal_ms = ms(replay.pal);
    layers.lp_ms = ms(replay.lp);
    layers.lp_calls = replay.lp_calls;
    layers.lp_pivots = replay.lp_pivots;
    layers.replay_mismatches = replay.mismatches;
    Ok(TracedSolve {
        outcome,
        strategy,
        solve_ms,
        layers,
    })
}

/// The replay pass: one fresh engine, the evaluator's objective memo
/// mirrored by class key, and a stopwatch per layer.
struct Replay<'a> {
    spec: &'a GameSpec,
    engine: PalEngine<'a>,
    memo: HashMap<Vec<u64>, f64>,
    pal: Duration,
    lp: Duration,
    lp_calls: u64,
    lp_pivots: u64,
    mismatches: u64,
}

/// Algorithm 1's defaults, as `CggsConfig::default()` sets them.
const CGGS_MAX_COLUMNS: usize = 256;
const CGGS_TOL: f64 = 1e-7;

impl<'a> Replay<'a> {
    fn pal_call<T>(&mut self, f: impl FnOnce(&PalEngine<'a>) -> T) -> T {
        let (out, d) = timed(|| f(&self.engine));
        self.pal += d;
        out
    }

    fn master(&mut self, matrix: &PayoffMatrix) -> Result<MasterSolution, GameError> {
        let (out, d) = timed(|| MasterSolver::solve(self.spec, matrix));
        self.lp += d;
        let sol = out?;
        self.lp_calls += 1;
        self.lp_pivots += sol.lp_iterations as u64;
        Ok(sol)
    }

    fn compare(&mut self, replayed: f64, logged: f64) {
        if replayed.to_bits() != logged.to_bits() {
            self.mismatches += 1;
        }
    }

    fn build(&mut self, orders: Vec<AuditOrder>, thresholds: &[f64]) -> PayoffMatrix {
        let spec = self.spec;
        self.pal_call(|e| PayoffMatrix::build_with_engine(spec, e, orders, thresholds))
    }

    /// Re-issue every logged call in order. `pool` is the fixed column
    /// pool of the exact and decomposed tiers (`None` for CGGS).
    fn run(&mut self, calls: &[Call], pool: Option<&[AuditOrder]>) -> Result<(), GameError> {
        for call in calls {
            match (call, pool) {
                (Call::Prime { candidates }, Some(pool)) => {
                    let mut seen = HashSet::new();
                    let fresh: Vec<&Vec<f64>> = candidates
                        .iter()
                        .filter(|c| {
                            let key = self.engine.threshold_class_key(c);
                            !self.memo.contains_key(&key) && seen.insert(key)
                        })
                        .collect();
                    if fresh.len() > 1 {
                        let queries: Vec<PalQuery> = fresh
                            .iter()
                            .flat_map(|c| pool.iter().map(move |o| PalQuery::full(o, c)))
                            .collect();
                        self.pal_call(|e| e.pal_batch(&queries));
                    }
                    for c in fresh {
                        let m = self.build(pool.to_vec(), c);
                        let value = self.master(&m)?.value;
                        self.memo.insert(self.engine.threshold_class_key(c), value);
                    }
                }
                // CGGS keeps the default (empty) prime.
                (Call::Prime { .. }, None) => {}
                (Call::Evaluate { thresholds, value }, _) => {
                    let key = self.engine.threshold_class_key(thresholds);
                    let replayed = match (self.memo.get(&key), pool) {
                        (Some(&memo), _) => memo,
                        (None, Some(pool)) => {
                            let m = self.build(pool.to_vec(), thresholds);
                            self.master(&m)?.value
                        }
                        (None, None) => self.cggs(thresholds)?.0.value,
                    };
                    self.memo.insert(key, replayed);
                    self.compare(replayed, *value);
                }
                (
                    Call::SolveFull {
                        thresholds,
                        value,
                        orders,
                    },
                    _,
                ) => {
                    let replayed = match pool {
                        Some(pool) => {
                            let mut m = self.build(pool.to_vec(), thresholds);
                            let mut sol = self.master(&m)?;
                            if orders.len() > pool.len() {
                                // The refinement's admitted columns, then
                                // the final master over the refined pool.
                                let spec = self.spec;
                                for o in &orders[pool.len()..] {
                                    self.pal_call(|e| {
                                        m.push_order_with_engine(spec, e, o.clone(), thresholds)
                                    });
                                }
                                sol = self.master(&m)?;
                            }
                            sol.value
                        }
                        None => {
                            let (sol, cols) = self.cggs(thresholds)?;
                            if &cols != orders {
                                self.mismatches += 1;
                            }
                            sol.value
                        }
                    };
                    self.compare(replayed, *value);
                }
            }
        }
        Ok(())
    }

    /// Algorithm 1 (CGGS) at fixed thresholds with the greedy pricing
    /// oracle, issuing the same engine queries as the solver's own.
    fn cggs(&mut self, b: &[f64]) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let spec = self.spec;
        let n = spec.n_types();
        let mut matrix = self.build(vec![AuditOrder::identity(n)], b);
        while matrix.n_orders() < CGGS_MAX_COLUMNS {
            let master = self.master(&matrix)?;
            let candidate = self.greedy_column(b, &master.y_actions);
            let pal = self.pal_call(|e| e.pal(&candidate, b));
            let score = score(spec, &pal, &master.y_actions);
            if score < master.value - CGGS_TOL && !matrix.orders.contains(&candidate) {
                self.pal_call(|e| matrix.push_order_with_engine(spec, e, candidate, b));
            } else {
                return Ok((master, matrix.orders));
            }
        }
        let master = self.master(&matrix)?;
        Ok((master, matrix.orders))
    }

    /// Greedy best response: append, one position at a time, the type
    /// with the largest weighted marginal detection mass `w_t · Pal_t`.
    fn greedy_column(&mut self, b: &[f64], y: &[f64]) -> AuditOrder {
        let spec = self.spec;
        let n = spec.n_types();
        let mut w = vec![0.0; n];
        let actions = spec.attackers.iter().flat_map(|a| &a.actions);
        for (act, &y_i) in actions.zip(y) {
            let mass = y_i * (act.penalty + act.reward);
            if mass != 0.0 {
                for &(t, p) in &act.alert_probs {
                    w[t] += mass * p;
                }
            }
        }
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        for _ in 0..n {
            let candidates: Vec<usize> = (0..n).filter(|&t| !placed[t]).collect();
            let queries: Vec<PalQuery> = candidates
                .iter()
                .map(|&t| {
                    let mut seq = prefix.clone();
                    seq.push(t);
                    PalQuery::prefix(&seq, b)
                })
                .collect();
            let pals = self.pal_call(|e| e.pal_batch(&queries));
            let mut best: Option<(usize, f64)> = None;
            for (&t, pal) in candidates.iter().zip(&pals) {
                let gain = w[t] * pal[t];
                if best.is_none_or(|(_, g)| gain > g + 1e-15) {
                    best = Some((t, gain));
                }
            }
            let (t, _) = best.expect("an unplaced type remains");
            placed[t] = true;
            prefix.push(t);
        }
        AuditOrder::new(prefix).expect("greedy construction is a permutation")
    }
}

/// `Σ y_i · U_a(o, b, i)`: the attacker mixture's payoff against the
/// pure order whose detection vector is `pal`.
fn score(spec: &GameSpec, pal: &[f64], y: &[f64]) -> f64 {
    let actions = spec.attackers.iter().flat_map(|a| &a.actions);
    actions
        .zip(y)
        .filter(|(_, &y_i)| y_i != 0.0)
        .fold(0.0, |f, (act, &y_i)| f + y_i * action_utility(act, pal))
}
