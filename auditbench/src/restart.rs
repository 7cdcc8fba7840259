//! `restart`: bring an `emr-reaa` service back from files written during
//! set-up.
//!
//! Set-up builds the game, draws a large sample bank, writes it as a
//! scenario snapshot, runs an `AuditService` to the middle of its horizon
//! and checkpoints it there, then finishes that run in memory for the
//! reference telemetry fingerprint. Each operation loads the snapshot
//! through `BankSource::Snapshot` and restores the service with
//! `AuditService::restore`: bank generation aside, only the snapshot codec
//! and checkpoint I/O do work, the solver none. Files go to
//! `.bench_run/` under the working directory and are removed at the end;
//! nothing on the timed path syncs to disk.

use crate::report::Report;
use crate::stats::{another_round, mean, median, ms, repeated_setup, timed};
use crate::Args;
use alert_audit::game::model::GameSpec;
use alert_audit::game::scenario::Scenario;
use alert_audit::persist::{
    load_checkpoint, scenario_snapshot_bytes, scenario_snapshot_from_bytes, BankReadOptions,
    BankSource, SnapshotVerify,
};
use alert_audit::runtime::checkpoint::{BANK_FILE, STATE_FILE};
use alert_audit::runtime::{AuditService, RuntimeConfig, ServiceState};
use alert_audit::stochastics::rng::derive_seed;
use alert_audit::stochastics::SampleBank;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENARIO: &str = "emr-reaa";
/// Seed of the checkpointed service, fixed across workload seeds: its
/// solves would make set-up cost vary twofold between seeds, while the
/// restore reads the same amount either way. The workload seed draws the
/// snapshot's game and large bank.
const SERVICE_SEED: u64 = 0;
/// Samples in the snapshot's bank.
const BANK_SAMPLES: usize = 100_000;
/// The checkpointed service's horizon and the epoch it is cut at.
const EPOCHS: usize = 6;
const CUT_EPOCH: usize = 3;
/// Restores per round.
const RESTORES: usize = 8;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPEATS: usize = 3;

/// The run's working directory, removed (with its parent, once empty)
/// when dropped.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Setup {
    scenario: Arc<dyn Scenario>,
    spec: GameSpec,
    seed: u64,
    snapshot: PathBuf,
    checkpoint: PathBuf,
    /// Telemetry fingerprint of the uninterrupted run.
    reference: u64,
}

fn setup(dir: &Path, seed: u64) -> Result<Setup, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let registry = alert_audit::scenario::registry();
    let scenario = Arc::clone(registry.resolve(SCENARIO).map_err(|e| e.to_string())?);
    let seed = derive_seed(seed, 0);
    let spec = scenario.build(seed).map_err(|e| e.to_string())?;
    let bank = spec.sample_bank(BANK_SAMPLES, seed);
    let bytes =
        scenario_snapshot_bytes(scenario.key(), seed, &spec, &bank).map_err(|e| e.to_string())?;
    let snapshot = dir.join("scenario.snap");
    std::fs::write(&snapshot, bytes).map_err(io)?;

    let service = AuditService::new(
        Arc::clone(&scenario),
        RuntimeConfig {
            epochs: EPOCHS,
            seed: SERVICE_SEED,
            ..RuntimeConfig::default()
        },
    );
    let state = service.run_until(CUT_EPOCH).map_err(|e| e.to_string())?;
    let checkpoint = dir.join("checkpoint");
    service
        .checkpoint(&state, &checkpoint)
        .map_err(|e| e.to_string())?;
    let reference = service
        .resume(state)
        .map_err(|e| e.to_string())?
        .fingerprint();
    Ok(Setup {
        scenario,
        spec,
        seed,
        snapshot,
        checkpoint,
        reference,
    })
}

/// What one restore brings back.
struct Restored {
    spec: GameSpec,
    bank: SampleBank,
    service: AuditService,
    state: ServiceState,
}

/// One restore: the large bank through `BankSource::Snapshot`, the
/// service through `AuditService::restore`.
fn restore(s: &Setup) -> Result<Restored, String> {
    let (spec, bank) = BankSource::Snapshot {
        path: s.snapshot.clone(),
        verify: SnapshotVerify::Fingerprint,
    }
    .resolve(s.scenario.as_ref(), BANK_SAMPLES)
    .map_err(|e| e.to_string())?;
    let (service, state) =
        AuditService::restore(Arc::clone(&s.scenario), &s.checkpoint).map_err(|e| e.to_string())?;
    Ok(Restored {
        spec,
        bank,
        service,
        state,
    })
}

/// Check a restore against a fresh regeneration of the bank and the
/// set-up's configuration; with `resume`, also run the restored service
/// to its horizon, which must reproduce the uninterrupted run.
fn check(s: &Setup, fresh: &SampleBank, r: Restored, resume: bool) -> Result<(), String> {
    if r.spec.fingerprint() != s.spec.fingerprint() {
        return Err("the snapshot's game differs from the built one".into());
    }
    let same_bank = r.bank.n_samples() == fresh.n_samples()
        && r.bank.n_types() == fresh.n_types()
        && (0..r.bank.n_types()).all(|t| r.bank.column(t) == fresh.column(t));
    if !same_bank {
        return Err("the loaded bank differs from a fresh regeneration".into());
    }
    let config = r.service.config();
    if r.state.epoch != CUT_EPOCH || config.epochs != EPOCHS || config.seed != SERVICE_SEED {
        return Err(format!(
            "restored at epoch {} with a different configuration",
            r.state.epoch
        ));
    }
    if resume {
        let report = r.service.resume(r.state).map_err(|e| e.to_string())?;
        if report.fingerprint() != s.reference {
            return Err("the resumed run differs from the uninterrupted one".into());
        }
    }
    Ok(())
}

/// Sum of the sizes of `paths`, in bytes.
fn file_bytes(paths: &[PathBuf]) -> Result<f64, String> {
    paths.iter().try_fold(0.0, |acc, p| {
        let len = std::fs::metadata(p)
            .map_err(|e| format!("{}: {e}", p.display()))?
            .len();
        Ok(acc + len as f64)
    })
}

/// Layer figures of one traced round.
#[derive(Default)]
struct Layers {
    bank_ms: f64,
    bytes_per_count: f64,
    encode_ms: f64,
    decode_ms: f64,
    snapshot_bytes: f64,
    save_ms: f64,
    load_ms: f64,
    checkpoint_bytes: f64,
}

/// A traced round: a restore with every step timed on its own, then the
/// set-up steps that write the files (their costs are what `setup_s`
/// pays). The restore runs first, so it meets the allocator in the same
/// state as the untimed restore just before it.
fn traced_round(s: &Setup, dir: &Path) -> Result<(Layers, Duration), String> {
    let mut l = Layers::default();
    let (restored, op) = timed(|| -> Result<_, String> {
        let raw = std::fs::read(&s.snapshot).map_err(|e| e.to_string())?;
        let (snap, d) = timed(|| scenario_snapshot_from_bytes(&raw, BankReadOptions::default()));
        let snap = snap.map_err(|e| e.to_string())?;
        l.decode_ms = ms(d);
        let (loaded, d) = timed(|| load_checkpoint(&s.checkpoint));
        let loaded = loaded.map_err(|e| e.to_string())?;
        l.load_ms = ms(d);
        Ok((snap, loaded))
    });
    let (snap, loaded) = restored?;
    if snap.bank.n_samples() != BANK_SAMPLES || loaded.state.epoch != CUT_EPOCH {
        return Err("the traced restore read different files".into());
    }
    drop(snap);

    let live = crate::live_heap_bytes();
    let (bank, d) = timed(|| s.spec.sample_bank(BANK_SAMPLES, s.seed));
    l.bank_ms = ms(d);
    let held = crate::live_heap_bytes().saturating_sub(live) as f64;
    l.bytes_per_count = held / (bank.n_samples() * bank.n_types()) as f64;
    let (bytes, d) = timed(|| scenario_snapshot_bytes(s.scenario.key(), s.seed, &s.spec, &bank));
    let bytes = bytes.map_err(|e| e.to_string())?;
    l.encode_ms = ms(d);
    l.snapshot_bytes = bytes.len() as f64;

    let copy = dir.join("traced-checkpoint");
    let service = AuditService::new(Arc::clone(&s.scenario), loaded.config.clone());
    let (saved, d) = timed(|| service.checkpoint(&loaded.state, &copy));
    saved.map_err(|e| e.to_string())?;
    l.save_ms = ms(d);
    l.checkpoint_bytes = file_bytes(&[copy.join(BANK_FILE), copy.join(STATE_FILE)])?;
    std::fs::remove_dir_all(&copy).map_err(|e| e.to_string())?;
    Ok((l, op))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let run_dir =
        RunDir(PathBuf::from(".bench_run").join(format!("restart-{}", std::process::id())));
    let dir = run_dir.0.clone();
    let (setup, setup_s) = repeated_setup(SETUP_REPEATS, || setup(&dir, args.seed))?;
    let fresh = setup.spec.sample_bank(BANK_SAMPLES, setup.seed);
    let start = Instant::now();
    let mut rounds_done = 0;
    let mut report = Report::new();
    let mut latencies = Vec::new();
    let mut round_means = Vec::new();
    let mut busy = Duration::ZERO;
    let mut rounds: Vec<Layers> = Vec::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    loop {
        let round_start = latencies.len();
        for _ in 0..RESTORES {
            let (restored, d) = timed(|| restore(&setup));
            latencies.push(ms(d));
            busy += d;
            // The run's first restore is also resumed to the horizon.
            report.op(restored.and_then(|r| check(&setup, &fresh, r, latencies.len() == 1)));
            if args.trace {
                plain_ms += ms(d);
                let (l, op) = traced_round(&setup, &dir)?;
                report.op(Ok(()));
                traced_ms += ms(op);
                rounds.push(l);
            }
        }
        round_means.push(mean(&latencies[round_start..]));
        rounds_done += 1;
        if !another_round(start, rounds_done, args.seconds) {
            break;
        }
    }

    if args.trace {
        let first = &rounds[0];
        let per_round = |f: fn(&Layers) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        report.set("bank.gen_ms", per_round(|l| l.bank_ms));
        report.set("bank.bytes_per_count", first.bytes_per_count);
        report.set("snapshot.encode_ms", per_round(|l| l.encode_ms));
        report.set("snapshot.decode_ms", per_round(|l| l.decode_ms));
        report.set("snapshot.bytes", first.snapshot_bytes);
        report.set("checkpoint.save_ms", per_round(|l| l.save_ms));
        report.set("checkpoint.load_ms", per_round(|l| l.load_ms));
        report.set("checkpoint.bytes", first.checkpoint_bytes);
        report.set(
            "trace.overhead_pct",
            (traced_ms - plain_ms) / plain_ms * 100.0,
        );
        report.zero_untouched_layers();
    } else {
        report.set("setup_s", setup_s);
        report.set(
            "throughput_per_s",
            latencies.len() as f64 / busy.as_secs_f64(),
        );
        report.set("latency_ms", median(&round_means));
        report.set("peak_heap_mb", crate::peak_heap_mb());
    }
    drop(run_dir);
    Ok(report)
}
