//! Independent recomputation of a committed audit policy's loss, and the
//! properties every planning result must have.
//!
//! Nothing here reads the solver's internals or a stored copy of an
//! earlier output. The detection probabilities are recomputed from the
//! sample bank by the paper's recourse formula (eq. 1), the attacker
//! utility and the auditor's loss by eq. 3–4, all written out below.

use alert_audit::game::detection::DetectionModel;
use alert_audit::game::model::GameSpec;
use alert_audit::game::ordering::AuditOrder;
use alert_audit::game::planner::SolveStrategy;
use alert_audit::game::solver::{AuditSolution, SolverConfig};
use alert_audit::stochastics::SampleBank;

/// Relative tolerance between the LP value and the recomputed loss (the
/// simplex works to ~1e-9 and the mixture is renormalised).
const LOSS_RTOL: f64 = 1e-7;

/// The planner tier a workload expects for a game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Exact,
    Cggs,
    Decomposed,
}

impl Tier {
    fn matches(self, s: &SolveStrategy) -> bool {
        matches!(
            (self, s),
            (Tier::Exact, SolveStrategy::Exact)
                | (Tier::Cggs, SolveStrategy::Cggs)
                | (Tier::Decomposed, SolveStrategy::Decomposed { .. })
        )
    }
}

/// Paper eq. 1 under the paper's approximation: `Pal(o, b, t)` as the
/// bank average of `n_t / Z_t`, where predecessors in `o` consume
/// `min(b, Z·C)` of the budget and a type with no benign alert is caught
/// when at least one audit of it is affordable.
pub fn pal(spec: &GameSpec, bank: &SampleBank, order: &AuditOrder, b: &[f64]) -> Vec<f64> {
    let n_types = spec.n_types();
    let mut acc = vec![0.0f64; n_types];
    for s in 0..bank.n_samples() {
        let z = bank.row(s);
        let mut consumed = 0.0f64;
        for &t in order.types() {
            let c = spec.alert_types[t].audit_cost;
            let remaining = spec.budget - consumed;
            let cap_budget = if remaining > 0.0 {
                (remaining / c).floor().max(0.0)
            } else {
                0.0
            };
            let cap_threshold = (b[t] / c).floor().max(0.0);
            let zt = z[t] as f64;
            let n_t = cap_budget.min(cap_threshold).min(zt);
            acc[t] += if z[t] > 0 {
                n_t / zt
            } else if cap_budget.min(cap_threshold) >= 1.0 {
                1.0
            } else {
                0.0
            };
            consumed += b[t].min(zt * c);
        }
    }
    let n = bank.n_samples() as f64;
    acc.iter().map(|a| a / n).collect()
}

/// Paper eq. 3–4: the auditor's loss when orders `orders` are played with
/// probabilities `probs` (their detection vectors in `pals`) and every
/// attacker best-responds — refraining, with utility 0, when the game
/// allows it.
pub fn loss(spec: &GameSpec, pals: &[Vec<f64>], probs: &[f64]) -> f64 {
    let mut total = 0.0;
    for attacker in &spec.attackers {
        let mut best = if spec.allow_opt_out || attacker.actions.is_empty() {
            0.0
        } else {
            f64::NEG_INFINITY
        };
        for action in &attacker.actions {
            let mut expected = 0.0;
            for (pal, &p) in pals.iter().zip(probs) {
                let detect: f64 = action.alert_probs.iter().map(|&(t, q)| q * pal[t]).sum();
                let utility =
                    detect * -action.penalty + (1.0 - detect) * action.reward - action.attack_cost;
                expected += p * utility;
            }
            best = best.max(expected);
        }
        if best.is_finite() {
            total += attacker.attack_prob * best;
        }
    }
    total
}

/// Every check a committed plan must pass: feasibility of thresholds and
/// mixture, the planner tier, the recomputed loss, and the LP property
/// that the mixture is no worse than any of its pure support orders.
/// `bank` must be the bank the solver drew, `spec.sample_bank(n, seed)`.
pub fn check_plan(
    spec: &GameSpec,
    bank: &SampleBank,
    config: &SolverConfig,
    expect: Tier,
    sol: &AuditSolution,
) -> Result<(), String> {
    if config.detection != DetectionModel::PaperApprox {
        return Err("the reference recomputes the paper's detection model only".into());
    }
    if !expect.matches(&sol.strategy) {
        return Err(format!(
            "planner chose {} where {expect:?} was expected",
            sol.strategy.describe()
        ));
    }
    let policy = &sol.policy;
    let n = spec.n_types();
    if policy.thresholds.len() != n {
        return Err(format!(
            "{} thresholds for {n} types",
            policy.thresholds.len()
        ));
    }
    let upper = spec.threshold_upper_bounds();
    for (t, (&b, &ub)) in policy.thresholds.iter().zip(&upper).enumerate() {
        let c = spec.alert_types[t].audit_cost;
        let units = b / c;
        let on_lattice = (units - units.round()).abs() <= 1e-9 * units.abs().max(1.0);
        if !(0.0..=ub).contains(&b) || !on_lattice {
            return Err(format!(
                "threshold {t} = {b} is off the audit-cost lattice of [0, {ub}] (cost {c})"
            ));
        }
    }
    if policy.orders.is_empty() || policy.orders.len() != policy.probs.len() {
        return Err("mixture has no orders or mismatched probabilities".into());
    }
    if policy.orders.iter().any(|o| o.len() != n) {
        return Err("an order does not cover every type".into());
    }
    if policy.probs.iter().any(|p| p.is_nan() || *p < 0.0) {
        return Err(format!("negative order probability in {:?}", policy.probs));
    }
    let mass: f64 = policy.probs.iter().sum();
    if (mass - 1.0).abs() > 1e-9 {
        return Err(format!("order probabilities sum to {mass}"));
    }

    let pals: Vec<Vec<f64>> = policy
        .orders
        .iter()
        .map(|o| pal(spec, bank, o, &policy.thresholds))
        .collect();
    let mixture = loss(spec, &pals, &policy.probs);
    let tol = LOSS_RTOL * sol.loss.abs().max(1.0);
    if (mixture - sol.loss).abs() > tol {
        return Err(format!(
            "reported loss {} but eq. 3-4 give {mixture}",
            sol.loss
        ));
    }
    for (k, (pal_k, &p)) in pals.iter().zip(&policy.probs).enumerate() {
        if p <= 0.0 {
            continue;
        }
        let pure = loss(spec, std::slice::from_ref(pal_k), &[1.0]);
        if pure < mixture - tol {
            return Err(format!(
                "support order {k} alone loses {pure}, less than the mixture's {mixture}"
            ));
        }
    }
    Ok(())
}
