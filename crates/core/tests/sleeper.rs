//! Integration tests for the adaptive idle subsystem (spin → yield → park):
//! no lost wakeups under a sparse producer, clean teardown around parked
//! workers, and the headline claim — parking collapses the idle-iteration
//! count of workers starved by a long sequential task.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcws_core::{scope, Counter, IdlePolicy, PoolBuilder, Variant};

/// Burn CPU (not sleep — the worker must look busy to the scheduler) for
/// roughly `d`.
fn busy_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        for _ in 0..1_000 {
            black_box(0u64);
        }
    }
}

/// One producer drips single jobs with gaps long enough for every helper to
/// escalate through spin and yield into a park; each job must still be
/// picked up and executed. A lost wakeup would either hang the run
/// (without the timed-park backstop) or blow the generous deadline.
#[test]
fn no_lost_wakeups_with_sparse_single_job_producer() {
    const ROUNDS: u32 = 150;
    for variant in [Variant::Ws, Variant::Signal, Variant::UsLcws] {
        let pool = PoolBuilder::new(variant).threads(4).build();
        let executed = AtomicU64::new(0);
        let deadline = Instant::now() + Duration::from_secs(60);
        let (_, snap) = pool.run_measured(|| {
            for _ in 0..ROUNDS {
                scope(|s| {
                    s.spawn(|| {
                        executed.fetch_add(1, Ordering::AcqRel);
                        busy_for(Duration::from_micros(50));
                    });
                });
                // Gap: long enough for the three idle helpers to park
                // (spin + yield stages are microseconds; the park timeout
                // is 1ms).
                busy_for(Duration::from_micros(300));
                assert!(
                    Instant::now() < deadline,
                    "{variant}: sparse producer stalled — wakeup lost?"
                );
            }
        });
        assert_eq!(
            executed.load(Ordering::Acquire),
            u64::from(ROUNDS),
            "{variant}: a spawned job was dropped"
        );
        // The run must actually have exercised the park path, or this test
        // guards nothing.
        assert!(
            snap.parks() > 0,
            "{variant}: helpers never parked (ladder misconfigured?)"
        );
    }
}

/// Dropping the pool right after runs that drove workers deep into the
/// parking path must join every helper promptly (run close wakes all
/// sleepers; teardown then goes through the between-runs start condvar).
#[test]
fn teardown_joins_workers_that_were_parked() {
    for variant in Variant::ALL {
        let t0 = Instant::now();
        {
            let pool = PoolBuilder::new(variant).threads(4).build();
            // Starve three helpers for long enough that they are parked at
            // the moment the run closes.
            pool.run(|| busy_for(Duration::from_millis(20)));
        } // Drop: must not hang on a parked worker.
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{variant}: teardown stalled"
        );
    }
}

/// The acceptance criterion for the sleeper: with a 2-worker pool running
/// one long sequential task, the starved worker's idle iteration count
/// drops by at least 10× versus the spin-only baseline, and it actually
/// parks. The root task *blocks* rather than burns CPU so the idle worker
/// is free to run on any machine size — on a single-core box a spinning
/// root would starve the idler and mask the busy-wait cost being measured.
/// (The numbers behind `results/idle_wakeup.txt` come from this scenario;
/// run with `--nocapture` to see them.)
#[test]
fn adaptive_idle_cuts_idle_iters_10x_on_sequential_task() {
    let measure = |policy: IdlePolicy| {
        let pool = PoolBuilder::new(Variant::Ws)
            .threads(2)
            .idle_policy(policy)
            .build();
        let (_, snap) = pool.run_measured(|| std::thread::sleep(Duration::from_millis(80)));
        snap
    };
    let spin = measure(IdlePolicy::SpinOnly);
    let adaptive = measure(IdlePolicy::Adaptive);
    println!(
        "sequential 80ms, 2 workers: spin-only idle_iters={} | adaptive idle_iters={} parks={} \
         unparks={} spurious={}",
        spin.idle_iters(),
        adaptive.idle_iters(),
        adaptive.parks(),
        adaptive.unparks(),
        adaptive.get(Counter::SpuriousWake),
    );
    assert_eq!(spin.parks(), 0, "spin-only must never park");
    assert!(adaptive.parks() > 0, "adaptive idler never parked");
    assert!(
        spin.idle_iters() >= 10 * adaptive.idle_iters().max(1),
        "idle iterations did not drop 10x: spin-only {} vs adaptive {}",
        spin.idle_iters(),
        adaptive.idle_iters()
    );
}

/// Regression (PR 8 satellite): a join waiter parked on a stolen arm used
/// to be woken by nothing but the 1ms timed-park backstop — an 80ms stolen
/// arm meant ~80 spurious timeout wakes while the joiner polled `done`.
/// Completion now delivers a targeted wake through the job's waiter slot
/// (and registered waiters park with the longer 50ms backstop), so the
/// spurious count collapses: the joiner eats at most a couple of backstop
/// expiries plus scheduling noise, not one per millisecond.
#[test]
fn join_completion_wake_is_targeted_not_polled() {
    let pool = PoolBuilder::new(Variant::Ws).threads(2).build();
    let stolen = AtomicBool::new(false);
    let (_, snap) = pool.run_measured(|| {
        lcws_core::join(
            // Keep the owner busy until the idle helper has stolen the 80ms
            // arm (or 1 s has passed), so the owner must *wait* for a thief.
            || {
                let deadline = Instant::now() + Duration::from_secs(1);
                while !stolen.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
            },
            || {
                stolen.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(80))
            },
        );
    });
    assert!(
        snap.parks() > 0,
        "joiner never parked while awaiting the stolen arm"
    );
    assert!(
        snap.unparks() > 0,
        "no wake was delivered — completion wake not wired?"
    );
    let spurious = snap.get(Counter::SpuriousWake);
    assert!(
        spurious <= 15,
        "join waiter still poll-waking: {spurious} spurious wakes across an \
         80ms stolen arm (the 1ms-backstop regime produced ~80)"
    );
}

/// Regression (this PR's headline bugfix): `JoinHandle::join` from *inside*
/// a pool worker goes through the worker's wait loop, which used to park
/// under the plain 1ms backstop with no targeted completion wake — the task's
/// completer had nowhere to record who was waiting, so a worker joining an
/// 80ms spawned task burned ~80 spurious backstop expiries polling `done`.
/// `TaskState` now carries a waiter slot mirroring `Job::waiter` (PR 8):
/// the joiner registers its index, parks with the lazy 50ms waiter
/// backstop, and `complete` delivers a targeted `wake_worker`. The
/// spurious count across the 70ms wait collapses to scheduling noise.
#[test]
fn worker_side_handle_join_wake_is_targeted_not_polled() {
    // threads(3) ⇒ two serve-mode helpers: one to sleep inside the slow
    // task, one to run the joiner. (With a single helper the two tasks
    // would serialize and the join would never wait at all.)
    let pool = std::sync::Arc::new(PoolBuilder::new(Variant::Ws).threads(3).build());
    pool.serve();
    // Land the slow task on one helper first, so the joiner task cannot be
    // batch-popped by the same helper (which would dodge the park while
    // the *other* helper idles at the short backstop, polluting the
    // spurious count this test pins).
    let slow = pool.spawn(|| {
        std::thread::sleep(Duration::from_millis(80));
        40u64
    });
    std::thread::sleep(Duration::from_millis(10));
    let h = pool.spawn(move || slow.join() + 2);
    assert_eq!(h.join(), 42);
    let snap = pool.shutdown();
    assert!(
        snap.parks() > 0,
        "worker-side joiner never parked while awaiting the spawned task"
    );
    assert!(
        snap.unparks() > 0,
        "no wake was delivered — TaskState completion wake not wired?"
    );
    let spurious = snap.get(Counter::SpuriousWake);
    assert!(
        spurious <= 25,
        "worker-side join still poll-waking: {spurious} spurious wakes across \
         an 80ms spawned task (the untargeted 1ms-backstop regime produced ~80)"
    );
}

/// Parks must not perturb correctness-critical accounting: a run that
/// parks still executes every task exactly once.
#[test]
fn parked_pool_preserves_task_accounting() {
    let pool = PoolBuilder::new(Variant::Signal).threads(3).build();
    for _ in 0..20 {
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(|| {
            scope(|s| {
                for h in &hits {
                    s.spawn(move || {
                        h.fetch_add(1, Ordering::AcqRel);
                    });
                }
            });
        });
        // Let helpers park between runs' work bursts.
        busy_for(Duration::from_micros(200));
        assert!(hits.iter().all(|h| h.load(Ordering::Acquire) == 1));
    }
}
