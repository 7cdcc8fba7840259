//! `fleet-online`: `FleetService::run` over the four-family synthetic
//! mix (rational, seasonal, heavy-tail, quantal tenants in rotation) with
//! the runtime defaults — CGGS warm re-solves, the drift gate, shared
//! prefix-state exchange — and one worker.
//!
//! One round is one whole fleet run; a run measures the whole number of
//! rounds closest to `--seconds`. The throughput is tenant periods per second
//! of fleet wall time; the latency is the wall time of the epochs that
//! re-solved (fingerprinted, so the same epochs every round). Quiet epochs
//! take ~0.01 ms per period and stay out of it.

use crate::report::Report;
use crate::stats::{another_round, mean, median, ms, repeated_setup, timed};
use crate::Args;
use alert_audit::game::detection::CacheStats;
use alert_audit::game::scenario::Scenario;
use alert_audit::runtime::{
    AuditService, FleetConfig, FleetReport, FleetService, RuntimeConfig, TenantHealth, TenantSpec,
};
use alert_audit::stochastics::rng::derive_seed;
use std::sync::Arc;
use std::time::Instant;

/// The tenant rotation of `exp_fleet --mix`.
const MIX: [&str; 4] = ["syn-a", "syn-seasonal", "syn-heavy-tail", "syn-quantal"];
/// Tenants and epochs per fleet run.
const TENANTS: usize = 48;
const EPOCHS: usize = 24;
/// Tenants rerun alone in set-up; their reports must match the fleet's.
const SOLO_CHECKS: usize = 2;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPEATS: usize = 3;

/// A tenant's inputs (a [`TenantSpec`] is rebuilt from them each round).
struct Tenant {
    name: String,
    scenario: Arc<dyn Scenario>,
    config: RuntimeConfig,
}

impl Tenant {
    fn spec(&self) -> TenantSpec {
        TenantSpec {
            name: self.name.clone(),
            scenario: Arc::clone(&self.scenario),
            config: self.config.clone(),
        }
    }
}

struct Setup {
    tenants: Vec<Tenant>,
    /// `(tenant index, fingerprint of its solo AuditService::run)`.
    solo: Vec<(usize, u64)>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let registry = alert_audit::scenario::registry();
    let tenants = (0..TENANTS)
        .map(|i| {
            let key = MIX[i % MIX.len()];
            let scenario = registry.resolve(key).map_err(|e| e.to_string())?;
            Ok(Tenant {
                name: format!("{key}#{i}"),
                scenario: Arc::clone(scenario),
                config: RuntimeConfig {
                    epochs: EPOCHS,
                    seed: derive_seed(seed, i as u64),
                    ..RuntimeConfig::default()
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Consecutive tenants from a seed-chosen start, so the checked
    // tenants span different families.
    let start = (derive_seed(seed, 0x5010) % TENANTS as u64) as usize;
    let solo = (0..SOLO_CHECKS)
        .map(|k| {
            let i = (start + k) % TENANTS;
            let t = &tenants[i];
            let report = AuditService::new(Arc::clone(&t.scenario), t.config.clone())
                .run()
                .map_err(|e| format!("{}: solo run: {e}", t.name))?;
            Ok((i, report.fingerprint()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Setup { tenants, solo })
}

fn fleet_run(tenants: &[Tenant]) -> Result<FleetReport, String> {
    let config = FleetConfig {
        workers: 1,
        share_caches: true,
        ..FleetConfig::default()
    };
    FleetService::new(tenants.iter().map(Tenant::spec).collect(), config)
        .run()
        .map_err(|e| format!("fleet run: {e}"))
}

/// Check one tenant of a fleet report: healthy, every period run, and
/// (for the solo-checked tenants) the same telemetry as running alone.
fn check_tenant(setup: &Setup, report: &FleetReport, i: usize) -> Result<(), String> {
    let t = &report.tenants[i];
    if t.health != TenantHealth::Healthy {
        return Err(format!("{} is {:?}", t.tenant, t.health));
    }
    let periods = setup.tenants[i].config.periods_per_epoch * EPOCHS;
    if t.report.epochs.len() != EPOCHS
        || t.report.total_periods() != periods
        || t.epoch_millis.len() != EPOCHS
    {
        return Err(format!(
            "{} ran {} periods, not {periods}",
            t.tenant,
            t.report.total_periods()
        ));
    }
    for &(j, fingerprint) in &setup.solo {
        if j == i && t.report.fingerprint() != fingerprint {
            return Err(format!("{} differs from its solo run", t.tenant));
        }
    }
    Ok(())
}

/// Per-round layer figures of a fleet run, from its own telemetry.
#[derive(Default)]
struct Layers {
    quiet_ms: f64,
    solve_ms: f64,
    resolves: u64,
    drift_epochs: u64,
    wait_ms: f64,
    cache: CacheStats,
    adoptions: u64,
    publishes: u64,
}

fn layers(report: &FleetReport, wall_ms: f64) -> Layers {
    let mut l = Layers::default();
    let mut compute_ms = 0.0;
    for t in &report.tenants {
        compute_ms += t.start_millis + t.epoch_millis.iter().sum::<f64>();
        for (e, &m) in t.report.epochs.iter().zip(&t.epoch_millis) {
            if e.resolved {
                l.solve_ms += m;
            } else {
                l.quiet_ms += m;
            }
        }
        l.resolves += t.report.resolves() as u64;
        l.drift_epochs += t.report.drift_epochs() as u64;
        l.cache.absorb(&t.report.engine_cache);
    }
    l.wait_ms = wall_ms - compute_ms;
    l.adoptions = report.shared_cache.adoptions;
    l.publishes = report.shared_cache.publishes;
    l
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup, setup_s) = repeated_setup(SETUP_REPEATS, || setup(args.seed))?;
    let start = Instant::now();
    let mut rounds_done = 0;
    let mut report = Report::new();
    let mut fingerprint = None;
    let (mut periods, mut busy_ms) = (0usize, 0.0);
    let mut round_means = Vec::new();
    let mut rounds: Vec<Layers> = Vec::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    loop {
        let (fleet, d) = timed(|| fleet_run(&setup.tenants));
        let fleet = fleet?;
        periods += fleet.total_periods;
        busy_ms += ms(d);
        plain_ms += ms(d);
        for i in 0..fleet.tenants.len() {
            report.op(check_tenant(&setup, &fleet, i));
        }
        let first = *fingerprint.get_or_insert(fleet.fingerprint());
        report.op(if first == fleet.fingerprint() {
            Ok(())
        } else {
            Err("a repeat fleet run changed its fingerprint".into())
        });
        let resolving: Vec<f64> = fleet
            .tenants
            .iter()
            .flat_map(|t| t.report.epochs.iter().zip(&t.epoch_millis))
            .filter(|(e, _)| e.resolved)
            .map(|(_, &m)| m)
            .collect();
        if resolving.is_empty() {
            return Err("no epoch re-solved".into());
        }
        round_means.push(mean(&resolving));
        if args.trace {
            // The traced round: the same fleet run, then its telemetry
            // read into layer figures.
            let (traced, d) = timed(|| {
                fleet_run(&setup.tenants).map(|f| {
                    let l = layers(&f, f.wall_millis);
                    (f, l)
                })
            });
            let (traced, l) = traced?;
            if traced.fingerprint() != fleet.fingerprint() {
                return Err("the traced fleet run differs from the untraced one".into());
            }
            report.op(Ok(()));
            rounds.push(l);
            traced_ms += ms(d);
        }
        rounds_done += 1;
        if !another_round(start, rounds_done, args.seconds) {
            break;
        }
    }

    if args.trace {
        let first = &rounds[0];
        let per_round = |f: fn(&Layers) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        report.set("pal.columns", first.cache.columns_evaluated as f64);
        report.set("pal.state_hits", first.cache.state_hits as f64);
        report.set("pal.cache_hits", first.cache.hits as f64);
        report.set("pal.cache_misses", first.cache.misses as f64);
        report.set("epoch.quiet_ms", per_round(|l| l.quiet_ms));
        report.set("epoch.solve_ms", per_round(|l| l.solve_ms));
        report.set("epoch.resolves", first.resolves as f64);
        report.set("epoch.drift_epochs", first.drift_epochs as f64);
        report.set("fleet.wait_ms", per_round(|l| l.wait_ms));
        report.set("fleet.shared_adoptions", first.adoptions as f64);
        report.set("fleet.shared_publishes", first.publishes as f64);
        report.set(
            "trace.overhead_pct",
            (traced_ms - plain_ms) / plain_ms * 100.0,
        );
        report.zero_untouched_layers();
    } else {
        report.set("setup_s", setup_s);
        report.set("throughput_per_s", periods as f64 / (busy_ms / 1e3));
        report.set("latency_ms", median(&round_means));
        report.set("peak_heap_mb", crate::peak_heap_mb());
    }
    Ok(report)
}
