//! The run's result line and the watchdog that turns a hang into a failed
//! run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::Tally;

/// Named metrics plus the attempted/failed tally, rendered as the one JSON
/// object the run ends with.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        )
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static LAST_BEAT_MS: AtomicU64 = AtomicU64::new(0);
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Mark progress: an iteration is about to start. `tally` is what the
/// failure line reports if this iteration never finishes.
pub fn beat(tally: &Tally) {
    ATTEMPTED.store(tally.attempted, Ordering::Relaxed);
    FAILED.store(tally.failed, Ordering::Relaxed);
    LAST_BEAT_MS.store(epoch().elapsed().as_millis() as u64, Ordering::Relaxed);
}

/// Ends the process with a failed result when no iteration started for
/// `limit`: a hung pool cannot be unwound, so the run reports the hang as
/// one more failed operation and exits non-zero.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(limit: Duration) -> Watchdog {
        beat(&Tally::default());
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                let idle =
                    epoch().elapsed().as_millis() as u64 - LAST_BEAT_MS.load(Ordering::Relaxed);
                if idle > limit.as_millis() as u64 {
                    let failed = Report {
                        tally: Tally {
                            attempted: ATTEMPTED.load(Ordering::Relaxed) + 1,
                            failed: FAILED.load(Ordering::Relaxed) + 1,
                        },
                        metrics: Vec::new(),
                    };
                    eprintln!("perfbench: no progress for {idle} ms; failing the run");
                    println!("{}", failed.json());
                    std::process::exit(3);
                }
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
