//! Benchmark driver for the alert-audit workspace.
//!
//! ```text
//! auditbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! auditbench --workload <name> --seed <n> --seconds <s> --steady <runs>
//! ```
//!
//! One invocation runs one named workload closed-loop in this process
//! (each operation starts when the previous one ends) for `--seconds`,
//! in whole rounds of the same operations, and prints one JSON object as
//! the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end set, timed
//! with no tracing at all; with `--trace 1` the run times the calls into
//! each layer from this benchmark's own code and prints the per-layer
//! set instead. `--steady <runs>` re-invokes this binary `runs` times on
//! consecutive seeds and prints the median, quartiles and spread of every
//! end-to-end metric. Inputs are generated from `--seed` alone; the
//! program under test only ever sees the generated inputs. See
//! `README.md` for the workloads and what each metric should move.

mod fleet;
mod plan;
mod reference;
mod replay;
mod report;
mod restart;
mod stats;
mod steady;

use report::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes currently held through the global allocator, and the most
/// ever held at once. They measure what the program keeps in memory —
/// `peak_heap_mb` and `bank.bytes_per_count` — whatever layout a structure
/// chooses and however the allocator fragments.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Count `size` more bytes held.
fn grow(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// [`System`] plus the [`LIVE_BYTES`] and [`PEAK_BYTES`] counters.
struct CountingAlloc;

// SAFETY: every method forwards the caller's pointer, layout and size to
// `System` unchanged and returns its result, so `System` receives exactly
// the guarantees the caller gave; the counters are statistics that
// publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl comment).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged (see the impl comment).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Old and new blocks may coexist while the contents move.
            grow(new_size);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes held right now.
pub fn live_heap_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most heap this process has held at once, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanWide,
    PlanReal,
    FleetOnline,
    Restart,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PlanWide,
        Workload::PlanReal,
        Workload::FleetOnline,
        Workload::Restart,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PlanWide => "plan-wide",
            Workload::PlanReal => "plan-real",
            Workload::FleetOnline => "fleet-online",
            Workload::Restart => "restart",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub steady: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut steady = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (known: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed '{v}' is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds '{v}' is not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
            },
            "--steady" => {
                let v = value()?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--steady '{v}' is not a count"))?;
                if n < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                steady = Some(n);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        steady,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("auditbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(&args, runs);
    }
    let result: Result<Report, String> = match args.workload {
        Workload::PlanWide | Workload::PlanReal => plan::run(&args),
        Workload::FleetOnline => fleet::run(&args),
        Workload::Restart => restart::run(&args),
    };
    match result {
        Ok(report) => {
            report.assert_complete(args.trace);
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("auditbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
