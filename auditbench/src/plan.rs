//! `plan-wide` and `plan-real`: cold `OapSolver::solve` calls, closed
//! loop, over games whose sample banks are drawn from the workload seed.
//!
//! * `plan-wide` solves `syn-wide25` games (25 alert types) through the
//!   planner's decomposed tier, where the `Pal` kernel does most of the
//!   work.
//! * `plan-real` alternates `credit-reab` (the paper's Rea B, exact tier)
//!   and `emr-reaa` (Rea A, CGGS tier), where the master LP does most of
//!   the work.
//!
//! One round solves every game once; a run measures the whole number of
//! rounds closest to `--seconds`. The first solve of each game is checked
//! against the independent reference ([`crate::reference`]); later rounds
//! must reproduce it bit for bit.

use crate::reference::{check_plan, Tier};
use crate::replay::{traced_solve, Layers};
use crate::report::Report;
use crate::stats::{another_round, mean, median, ms, repeated_setup, timed};
use crate::{Args, Workload};
use alert_audit::game::model::GameSpec;
use alert_audit::game::solver::{AuditSolution, InnerKind, OapSolver, SolverConfig};
use alert_audit::stochastics::rng::derive_seed;
use alert_audit::stochastics::SampleBank;
use std::time::{Duration, Instant};

/// `plan-wide`: games per round, Monte-Carlo samples and ISHM step.
const WIDE_GAMES: u64 = 32;
const WIDE_SAMPLES: usize = 60;
const WIDE_EPSILON: f64 = 0.5;
/// `plan-real`: games per round (alternating Rea B and Rea A), samples
/// and ISHM step.
const REAL_GAMES: u64 = 24;
const REAL_SAMPLES: usize = 200;
const REAL_EPSILON: f64 = 0.5;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPEATS: usize = 3;

/// One planning input: the game, the solver settings, the tier the
/// planner must pick, and the bank the solver will draw (for the
/// reference check).
struct Game {
    label: String,
    spec: GameSpec,
    config: SolverConfig,
    expect: Tier,
    bank: SampleBank,
}

/// Set-up: build the round's games and their reference banks, then warm
/// the solver up with one small untimed solve (`syn-a` at conformance
/// scale) so the first timed solve does not pay first-touch costs.
///
/// Game `i` of a round is the scenario built at structure seed `i` (`i/2`
/// for the alternating `plan-real`), fixed across workload seeds; the
/// workload seed draws each game's Monte-Carlo sample bank. Solve cost
/// varies about threefold between game structures but only ~15% between
/// banks of one structure, so a round of 24–32 games is a steady
/// measurement while every seed still gives the solver new inputs.
fn setup(workload: Workload, seed: u64) -> Result<Vec<Game>, String> {
    let registry = alert_audit::scenario::registry();
    let (count, samples, epsilon) = match workload {
        Workload::PlanWide => (WIDE_GAMES, WIDE_SAMPLES, WIDE_EPSILON),
        _ => (REAL_GAMES, REAL_SAMPLES, REAL_EPSILON),
    };
    let games = (0..count)
        .map(|i| {
            let (key, expect, structure) = match (workload, i % 2) {
                (Workload::PlanWide, _) => ("syn-wide25", Tier::Decomposed, i),
                (_, 0) => ("credit-reab", Tier::Exact, i / 2),
                _ => ("emr-reaa", Tier::Cggs, i / 2),
            };
            let scenario = registry.resolve(key).map_err(|e| e.to_string())?;
            let spec = scenario
                .build(structure)
                .map_err(|e| format!("{key} build: {e}"))?;
            let bank_seed = derive_seed(seed, i);
            let config = SolverConfig {
                n_samples: samples,
                epsilon,
                seed: bank_seed,
                inner: InnerKind::Auto,
                threads: 1,
                ..SolverConfig::default()
            };
            let bank = spec.sample_bank(samples, bank_seed);
            Ok(Game {
                label: format!("{key}#{structure} bank {bank_seed}"),
                spec,
                config,
                expect,
                bank,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warm = registry.resolve("syn-a").map_err(|e| e.to_string())?;
    let spec = warm.build_small(seed).map_err(|e| e.to_string())?;
    OapSolver::new(SolverConfig {
        seed,
        ..SolverConfig::default()
    })
    .solve(&spec)
    .map_err(|e| format!("warm-up solve: {e}"))?;
    Ok(games)
}

/// The bits of a committed solution that later rounds must reproduce.
#[derive(PartialEq)]
struct Digest {
    loss: u64,
    thresholds: Vec<u64>,
    probs: Vec<u64>,
    orders: Vec<Vec<usize>>,
}

impl Digest {
    fn of(sol: &AuditSolution) -> Self {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        Self {
            loss: sol.loss.to_bits(),
            thresholds: bits(&sol.policy.thresholds),
            probs: bits(&sol.policy.probs),
            orders: sol
                .policy
                .orders
                .iter()
                .map(|o| o.types().to_vec())
                .collect(),
        }
    }
}

/// Check a solve: the full reference check the first time a game is
/// solved, bit-identity with that first solve afterwards.
fn verify(game: &Game, sol: &AuditSolution, first: &mut Option<Digest>) -> Result<(), String> {
    let digest = Digest::of(sol);
    match first {
        None => {
            check_plan(&game.spec, &game.bank, &game.config, game.expect, sol)
                .map_err(|e| format!("{}: {e}", game.label))?;
            *first = Some(digest);
            Ok(())
        }
        Some(d) if *d == digest => Ok(()),
        Some(_) => Err(format!("{}: a repeat solve changed the policy", game.label)),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (games, setup_s) = repeated_setup(SETUP_REPEATS, || setup(args.workload, args.seed))?;
    let start = Instant::now();
    let mut rounds_done = 0;
    let mut report = Report::new();
    let mut first: Vec<Option<Digest>> = games.iter().map(|_| None).collect();
    let mut latencies = Vec::new();
    let mut round_means = Vec::new();
    let mut busy = Duration::ZERO;
    let mut rounds: Vec<(Layers, f64, f64)> = Vec::new();
    loop {
        let round_start = latencies.len();
        let mut layers = Layers::default();
        let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
        for (game, first) in games.iter().zip(first.iter_mut()) {
            let (solved, d) = timed(|| OapSolver::new(game.config.clone()).solve(&game.spec));
            latencies.push(ms(d));
            busy += d;
            let sol = match solved {
                Ok(sol) => sol,
                Err(e) => {
                    report.op(Err(format!("{}: {e}", game.label)));
                    continue;
                }
            };
            report.op(verify(game, &sol, first));
            if args.trace {
                let traced = traced_solve(&game.spec, &game.config)
                    .map_err(|e| format!("{}: traced solve: {e}", game.label))?;
                same_as_untraced(&traced, &sol)
                    .map_err(|e| format!("{}: traced solve differs: {e}", game.label))?;
                report.op(Ok(()));
                layers.add(&traced.layers);
                plain_ms += ms(d);
                traced_ms += traced.solve_ms;
            }
        }
        if args.trace {
            rounds.push((layers, plain_ms, traced_ms));
        }
        round_means.push(mean(&latencies[round_start..]));
        rounds_done += 1;
        if !another_round(start, rounds_done, args.seconds) {
            break;
        }
    }

    if args.trace {
        layer_metrics(&mut report, &rounds)?;
    } else {
        report.set("setup_s", setup_s);
        report.set(
            "throughput_per_s",
            latencies.len() as f64 / busy.as_secs_f64(),
        );
        report.set("latency_ms", median(&round_means));
        report.set("peak_heap_mb", crate::peak_heap_mb());
    }
    Ok(report)
}

/// The composed solve must commit exactly what `OapSolver::solve` did.
fn same_as_untraced(
    traced: &crate::replay::TracedSolve,
    sol: &AuditSolution,
) -> Result<(), String> {
    let o = &traced.outcome;
    if o.value.to_bits() != sol.loss.to_bits() {
        return Err(format!("loss {} vs {}", o.value, sol.loss));
    }
    if o.thresholds != sol.policy.thresholds
        || o.orders != sol.policy.orders
        || o.master.p_orders != sol.policy.probs
    {
        return Err("committed policy".into());
    }
    if traced.strategy != sol.strategy {
        return Err(format!(
            "tier {} vs {}",
            traced.strategy.describe(),
            sol.strategy.describe()
        ));
    }
    if o.stats.thresholds_explored != sol.stats.thresholds_explored
        || o.stats.improvements != sol.stats.improvements
    {
        return Err("search counters".into());
    }
    if traced.layers.cache != sol.cache {
        return Err(format!(
            "engine counters {:?} vs {:?}",
            traced.layers.cache, sol.cache
        ));
    }
    Ok(())
}

/// Per-layer metrics of a traced plan run: times are the median over
/// rounds of each round's total; counters repeat exactly from round to
/// round and are taken from the first.
fn layer_metrics(report: &mut Report, rounds: &[(Layers, f64, f64)]) -> Result<(), String> {
    let first = &rounds.first().ok_or("no traced round completed")?.0;
    let per_round =
        |f: fn(&Layers) -> f64| median(&rounds.iter().map(|r| f(&r.0)).collect::<Vec<_>>());
    report.set("bank.gen_ms", per_round(|l| l.bank_ms));
    report.set("bank.bytes_per_count", first.bank_bytes / first.bank_counts);
    report.set("pal.ms", per_round(|l| l.pal_ms));
    report.set("pal.columns", first.cache.columns_evaluated as f64);
    report.set("pal.state_hits", first.cache.state_hits as f64);
    report.set("pal.cache_hits", first.cache.hits as f64);
    report.set("pal.cache_misses", first.cache.misses as f64);
    report.set("lp.ms", per_round(|l| l.lp_ms));
    report.set("lp.calls", first.lp_calls as f64);
    report.set("lp.pivots", first.lp_pivots as f64);
    report.set("inner.ms", per_round(|l| l.inner_ms));
    report.set("inner.evals", first.inner_evals as f64);
    report.set("ishm.self_ms", per_round(|l| l.ishm_self_ms));
    report.set("ishm.thresholds_explored", first.explored as f64);
    report.set("ishm.improvements", first.improvements as f64);
    let plain: f64 = rounds.iter().map(|r| r.1).sum();
    let traced: f64 = rounds.iter().map(|r| r.2).sum();
    report.set("trace.overhead_pct", (traced - plain) / plain * 100.0);
    let mismatches: u64 = rounds.iter().map(|r| r.0.replay_mismatches).sum();
    report.set("trace.replay_mismatches", mismatches as f64);
    if rounds
        .iter()
        .any(|r| r.0.lp_pivots != first.lp_pivots || r.0.cache != first.cache)
    {
        return Err("a layer counter changed between identical rounds".into());
    }
    report.zero_untouched_layers();
    Ok(())
}
