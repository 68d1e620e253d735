//! The compositions, the round-robin runner every workload goes through,
//! and the metrics it reduces its samples to.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use lcws_core::deque::AbpDeque;
use lcws_core::{
    Counter, DequeKind, ExposurePolicy, IdlePolicy, Job, NotifyChannel, Policies, PoolBuilder,
    PopBottomMode, Snapshot, SplitDeque, StealAmount, ThreadPool, Variant, VictimSelection,
};

use crate::report::{self, Report};
use crate::stats::{ratio, Dist, Tally};

/// Workers per pool: the benchmark measures at P = 2.
pub const THREADS: usize = 2;

/// One scheduler composition, pinned axis by axis so that a change to a
/// named bundle (`Policies::signal_half()` …) cannot redefine a metric.
pub struct Comp {
    pub name: &'static str,
    pub variant: Variant,
    pub policies: Policies,
}

const fn axes(
    deque: DequeKind,
    notify: NotifyChannel,
    exposure: ExposurePolicy,
    pop_bottom: PopBottomMode,
) -> Policies {
    Policies {
        deque,
        notify,
        exposure,
        pop_bottom,
        victim: VictimSelection::Uniform,
        steal: StealAmount::One,
        idle: IdlePolicy::Adaptive,
    }
}

pub const COMPS: [Comp; 4] = {
    use DequeKind::*;
    use ExposurePolicy as E;
    use NotifyChannel as N;
    use PopBottomMode as M;
    [
        Comp {
            name: "ws",
            variant: Variant::Ws,
            policies: axes(Abp, N::None, E::One, M::Standard),
        },
        Comp {
            name: "uslcws",
            variant: Variant::UsLcws,
            policies: axes(Split, N::Flag, E::One, M::Standard),
        },
        Comp {
            name: "signal",
            variant: Variant::Signal,
            policies: axes(Split, N::Signal, E::One, M::SignalSafe),
        },
        // The paper's Expose Half (§4.1.2): half the private tasks exposed,
        // one task per steal CAS.
        Comp {
            name: "half",
            variant: Variant::SignalHalf,
            policies: axes(Split, N::Signal, E::Half, M::SignalSafe),
        },
    ]
};

pub fn build_pool(comp: &Comp, threads: usize, trace_capacity: usize) -> ThreadPool {
    let builder = PoolBuilder::new(comp.variant)
        .policies(comp.policies)
        .threads(threads);
    #[cfg(feature = "trace")]
    let builder = builder.trace_capacity(trace_capacity);
    #[cfg(not(feature = "trace"))]
    let _ = trace_capacity;
    builder.build()
}

/// What one iteration of a workload on one pool produced.
pub struct Iteration {
    /// The time the workload's `<comp>_ms` metric is made of.
    pub ms: f64,
    /// The pool's counters over the iteration.
    pub snap: Snapshot,
    pub tally: Tally,
}

/// A workload as the runner sees it. Workload-specific samples (per-task
/// latencies, per-instance times) stay inside the implementation, keyed by
/// composition name.
pub trait Workload: Sync {
    /// One timed, checked iteration on a `THREADS`-worker pool.
    fn iterate(&self, pool: &ThreadPool, comp: &'static str) -> Iteration;
    /// One iteration on a single-worker pool (T₁).
    fn iterate_p1(&self, pool: &ThreadPool, comp: &'static str) -> Iteration {
        self.iterate(pool, comp)
    }
    /// The sequential reference for one iteration.
    fn seq(&self);
    /// Per-worker trace-ring capacity (events) one iteration needs.
    fn trace_capacity(&self) -> usize;
    /// Forget the workload-specific samples taken so far (after warm-up).
    fn discard_samples(&self) {}
    /// Workload-specific end-to-end metrics: `lat_p50_us` and
    /// `drain_tasks_per_s`, from the signal composition's run.
    fn end_to_end(&self, signal: &CompRun, out: &mut Report, lines: &mut Vec<String>);
    /// Workload-specific per-layer metrics (the `ingress.*` family).
    fn layers(
        &self,
        runs: &HashMap<&'static str, CompRun>,
        out: &mut Report,
        lines: &mut Vec<String>,
    );
}

/// Everything the runner collected for one composition.
#[derive(Default)]
pub struct CompRun {
    pub ms: Vec<f64>,
    pub snap: Snapshot,
    pub p1_ms: Vec<f64>,
    pub p1_snap: Snapshot,
    pub run_empty_us: Vec<f64>,
    pub send_to_handler_ns: Vec<f64>,
    pub request_to_steal_ns: Vec<f64>,
    pub parked_ns: Vec<f64>,
    pub injector_pops: u64,
    pub injector_jobs: u64,
}

/// Which measurement a run makes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every end-to-end metric, untraced.
    EndToEnd,
    /// The per-layer metrics: counters, T₁, deque microbenchmarks and, in
    /// a `trace` build, the trace reductions.
    Layers,
}

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
}

const WARMUP_ROUNDS: usize = 2;
const MIN_ROUNDS: usize = 3;
/// End-to-end runs repeat the set-up at least this often and for at
/// least `SETUP_MIN_S`, and report the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 60;

/// A fixed sequential kernel owned by the benchmark, timed in every
/// round so host drift shows next to the scheduler numbers.
pub fn cal_kernel() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1u32 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`, or
/// `None` where the kernel does not provide them. Steal is time the
/// hypervisor ran something else while this VM's vCPUs were runnable.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// One pool per composition for each worker count in `threads`; each
/// build's time in ms goes to `build_ms`.
fn build_pools(threads: &[usize], cap: usize, build_ms: &mut Vec<f64>) -> Vec<Vec<ThreadPool>> {
    threads
        .iter()
        .map(|&p| {
            COMPS
                .iter()
                .map(|c| {
                    let t = Instant::now();
                    let pool = build_pool(c, p, cap);
                    build_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    pool
                })
                .collect()
        })
        .collect()
}

/// Untimed pause before each set-up, so the previous set's helper threads
/// have exited and the next builds start from an idle machine.
const SETTLE: Duration = Duration::from_millis(2);

/// Warm-up rounds on the `THREADS`-worker pools, timed as set-up and not
/// as iterations: their outputs are checked, their samples discarded.
fn warm_up<W: Workload>(w: &W, pools: &[ThreadPool], tally: &mut Tally) {
    for _ in 0..WARMUP_ROUNDS {
        for (c, pool) in COMPS.iter().zip(pools) {
            report::beat(tally);
            tally.add(w.iterate(pool, c.name).tally);
            take_trace(pool, tally);
        }
    }
    w.discard_samples();
}

/// The set-up: `make` (input generation and sequential references), the
/// pool builds and the warm-up rounds, `min_reps` times or more (see
/// `SETUP_MIN_S`). Returns the last set with every set-up time in
/// seconds.
fn set_up<W: Workload>(
    min_reps: usize,
    threads: &[usize],
    make: &mut dyn FnMut() -> W,
    tally: &mut Tally,
) -> (W, Vec<Vec<ThreadPool>>, Vec<f64>, Vec<f64>) {
    let mut times = Vec::new();
    let mut build_ms = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (min_reps > 1 && times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take()); // free the previous set before timing the next
        std::thread::sleep(SETTLE);
        let t = Instant::now();
        let w = make();
        let pools = build_pools(threads, w.trace_capacity(), &mut build_ms);
        warm_up(&w, &pools[0], tally);
        times.push(t.elapsed().as_secs_f64());
        last = Some((w, pools));
    }
    let (w, pools) = last.expect("at least one set-up");
    (w, pools, times, build_ms)
}

/// Set up (including warm-up), then run every composition round-robin,
/// one iteration at a time, for `cfg.seconds`, and reduce the samples
/// into `out`.
/// Returns the median of the calibration kernel, in ms.
pub fn run<W: Workload>(
    cfg: &Config,
    mut make: impl FnMut() -> W,
    out: &mut Report,
    lines: &mut Vec<String>,
) -> f64 {
    let traced = cfg!(feature = "trace");
    let layers = cfg.mode == Mode::Layers;
    let (reps, threads): (usize, &[usize]) = match (cfg.mode, traced) {
        (Mode::EndToEnd, _) => (SETUP_MIN_REPS, &[THREADS]),
        (Mode::Layers, false) => (1, &[THREADS, 1]),
        (Mode::Layers, true) => (1, &[THREADS]),
    };
    let mut tally = Tally::default();
    let (w, pools, setup_s, build_ms) = set_up(reps, threads, &mut make, &mut tally);

    let mut runs: HashMap<&'static str, CompRun> =
        COMPS.iter().map(|c| (c.name, CompRun::default())).collect();
    let mut cal_ms = Vec::new();
    let mut seq_ms = Vec::new();

    let p2 = &pools[0];
    let host_before = host_cpu_ticks();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        report::beat(&tally);
        cal_ms.push(time_ms(|| {
            cal_kernel();
        }));
        if layers {
            seq_ms.push(time_ms(|| w.seq()));
        }
        // Rotate the starting composition so none always runs first.
        for k in 0..COMPS.len() {
            let i = (round + k) % COMPS.len();
            let (c, pool) = (&COMPS[i], &p2[i]);
            let run = runs.get_mut(c.name).expect("every composition has a slot");
            report::beat(&tally);
            let it = w.iterate(pool, c.name);
            tally.add(it.tally);
            run.ms.push(it.ms);
            run.snap = run.snap.merged(&it.snap);
            if let Some(trace) = take_trace(pool, &mut tally) {
                reduce_trace(&trace, run);
            }
            if layers && !traced {
                report::beat(&tally);
                let it = w.iterate_p1(&pools[1][i], c.name);
                tally.add(it.tally);
                run.p1_ms.push(it.ms);
                run.p1_snap = run.p1_snap.merged(&it.snap);
                run.run_empty_us.push(time_ms(|| pool.run(|| ())) * 1e3);
            }
        }
        round += 1;
    }

    // `half` must stay the paper's one-task-per-CAS Expose Half.
    tally.add(Tally::check(runs["half"].snap.steal_batch_tasks() == 0));
    out.tally.add(tally);
    let host_steal = match (host_before, host_cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => ratio((s1 - s0) as f64, (t1 - t0) as f64),
        _ => 0.0,
    };

    let cal = Dist::new(cal_ms);
    let seq = Dist::new(seq_ms);
    lines.push(format!("rounds={round} warmup_rounds={WARMUP_ROUNDS}"));
    lines.push(cal.describe("cal", "ms"));
    lines.push(format!(
        "host: {:.2}% of the machine's CPU time was stolen by the hypervisor while measuring",
        host_steal * 100.0
    ));
    lines.push(seq.describe("seq", "ms"));
    for c in &COMPS {
        let run = &runs[c.name];
        lines.push(Dist::new(run.ms.clone()).describe(&format!("{}.iter", c.name), "ms"));
        lines.push(format!(
            "{}.counters {:?}",
            c.name,
            counters_line(&run.snap)
        ));
    }

    match (cfg.mode, traced) {
        (Mode::EndToEnd, _) => {
            let setup = Dist::new(setup_s);
            lines.push(setup.describe("setup", "s"));
            out.put("setup_s", setup.q_or_zero(0.5), "s");
            for c in &COMPS {
                let d = Dist::new(runs[c.name].ms.clone());
                out.put(format!("{}_ms", c.name), d.q_or_zero(0.5), "ms");
                out.put(format!("{}_p90_ms", c.name), d.q_or_zero(0.9), "ms");
            }
            w.end_to_end(&runs["signal"], out, lines);
        }
        (Mode::Layers, false) => {
            let seq_med = seq.q_or_zero(0.5);
            for c in &COMPS {
                counter_layers(c.name, &runs[c.name], seq_med, out);
            }
            out.put("cal_ms", cal.q_or_zero(0.5), "ms");
            out.put("host.steal_frac", host_steal, "frac");
            out.put("seq_ms", seq_med, "ms");
            out.put("pool.build_ms", Dist::new(build_ms).q_or_zero(0.5), "ms");
            let signal = &p2[COMPS
                .iter()
                .position(|c| c.name == "signal")
                .expect("signal pool")];
            let serve = Dist::new(
                (0..20)
                    .map(|_| {
                        time_ms(|| {
                            signal.serve();
                            signal.shutdown();
                        }) * 1e3
                    })
                    .collect(),
            );
            lines.push(serve.describe("pool.serve_shutdown", "us"));
            out.put("pool.serve_shutdown_us", serve.q_or_zero(0.5), "us");
            deque_layers(out);
            w.layers(&runs, out, lines);
        }
        (Mode::Layers, true) => {
            for c in &COMPS {
                trace_layers(c.name, &runs[c.name], out, lines);
            }
            let sig = &runs["signal"];
            out.put(
                "ingress.injector_batch",
                ratio(sig.injector_jobs as f64, sig.injector_pops as f64),
                "jobs/pop",
            );
        }
    }
    cal.q_or_zero(0.5)
}

fn counters_line(s: &Snapshot) -> Vec<(&'static str, u64)> {
    [
        Counter::Push,
        Counter::TaskRun,
        Counter::Fence,
        Counter::Cas,
        Counter::StealAttempt,
        Counter::StealOk,
        Counter::StealPrivate,
        Counter::Exposure,
        Counter::OwnerPublicPop,
        Counter::SignalSent,
        Counter::Park,
        Counter::Unpark,
        Counter::SpuriousWake,
        Counter::StealAbort,
        Counter::StealBatchTask,
        Counter::InjectorPush,
        Counter::InjectorPop,
    ]
    .into_iter()
    .map(|k| (k.name(), s.get(k)))
    .collect()
}

fn counter_layers(c: &str, run: &CompRun, seq_ms: f64, out: &mut Report) {
    let s = &run.snap;
    let iters = run.ms.len() as f64;
    let n = s.tasks_run() as f64;
    let steals = s.steals_ok() as f64;
    let stolen = steals + s.steal_batch_tasks() as f64;
    let t2 = Dist::new(run.ms.clone()).q_or_zero(0.5);
    let t1 = Dist::new(run.p1_ms.clone()).q_or_zero(0.5);
    let p1_tasks_per_iter = ratio(run.p1_snap.tasks_run() as f64, run.p1_ms.len() as f64);
    let count = |k: Counter| s.get(k) as f64;
    for (name, value, unit) in [
        (
            "fences_per_ktask",
            ratio(1e3 * count(Counter::Fence), n),
            "count/ktask",
        ),
        (
            "cas_per_ktask",
            ratio(1e3 * count(Counter::Cas), n),
            "count/ktask",
        ),
        ("t1_over_seq", ratio(t1, seq_ms), "ratio"),
        ("t2_over_seq", ratio(t2, seq_ms), "ratio"),
        (
            "spawn_ns",
            ratio((t1 - seq_ms) * 1e6, p1_tasks_per_iter),
            "ns",
        ),
        (
            "signals_per_steal",
            ratio(count(Counter::SignalSent), steals),
            "count/steal",
        ),
        (
            "exposures_per_steal",
            ratio(count(Counter::Exposure), steals),
            "count/steal",
        ),
        (
            "unstolen_frac",
            s.unstolen_exposure_ratio().unwrap_or(0.0),
            "frac",
        ),
        (
            "steal_ok_frac",
            ratio(steals, count(Counter::StealAttempt)),
            "frac",
        ),
        ("stolen_per_iter", ratio(stolen, iters), "count/iter"),
        (
            "stolen_frac",
            ratio(stolen, count(Counter::TaskRun)),
            "frac",
        ),
        (
            "steal_aborts",
            ratio(count(Counter::StealAbort), iters),
            "count/iter",
        ),
        (
            "batch_tasks",
            ratio(count(Counter::StealBatchTask), iters),
            "count/iter",
        ),
        (
            "parks_per_iter",
            ratio(count(Counter::Park), iters),
            "count/iter",
        ),
        (
            "spurious_frac",
            ratio(count(Counter::SpuriousWake), count(Counter::Park)),
            "frac",
        ),
        (
            "wakes_per_task",
            ratio(count(Counter::Unpark), n),
            "count/task",
        ),
        (
            "run_empty_us",
            Dist::new(run.run_empty_us.clone()).q_or_zero(0.5),
            "us",
        ),
        // The untraced median the traced run's `trace_overhead` divides by.
        ("untraced_ms", t2, "ms"),
    ] {
        out.put(format!("{c}.{name}"), value, unit);
    }
}

#[cfg(feature = "trace")]
type TakenTrace = lcws_core::Trace;
#[cfg(not(feature = "trace"))]
type TakenTrace = ();

/// Take the pool's trace of its last iteration; a ring that overwrote
/// events fails the iteration's trace check.
#[cfg(feature = "trace")]
fn take_trace(pool: &ThreadPool, tally: &mut Tally) -> Option<TakenTrace> {
    let trace = pool.take_trace();
    tally.add(Tally::check(matches!(&trace, Some(t) if t.dropped == 0)));
    trace
}

#[cfg(not(feature = "trace"))]
fn take_trace(_pool: &ThreadPool, _tally: &mut Tally) -> Option<TakenTrace> {
    None
}

#[cfg(feature = "trace")]
fn reduce_trace(trace: &TakenTrace, run: &mut CompRun) {
    use crate::trace_reduce as tr;
    let f = |v: Vec<u64>| v.into_iter().map(|x| x as f64);
    run.send_to_handler_ns
        .extend(f(tr::send_to_handler_ns(&trace.events)));
    run.request_to_steal_ns
        .extend(f(tr::request_to_steal_ns(&trace.events)));
    run.parked_ns.extend(f(tr::parked_ns(&trace.events)));
    let (pops, jobs) = tr::injector_batches(&trace.events);
    run.injector_pops += pops;
    run.injector_jobs += jobs;
}

#[cfg(not(feature = "trace"))]
fn reduce_trace(_trace: &TakenTrace, _run: &mut CompRun) {}

fn trace_layers(c: &str, run: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
    for (name, ns) in [
        ("send_to_handler_us", &run.send_to_handler_ns),
        ("request_to_steal_us", &run.request_to_steal_ns),
        ("parked_us", &run.parked_ns),
    ] {
        let d = Dist::new(ns.iter().map(|x| x / 1e3).collect());
        lines.push(d.describe(&format!("{c}.{name}"), "us"));
        out.put(format!("{c}.{name}_p50"), d.q_or_zero(0.5), "us");
        out.put(format!("{c}.{name}_p99"), d.q_or_zero(0.99), "us");
        if name == "request_to_steal_us" {
            // Round trips add up to thief time: the mean and the sum per
            // iteration are what a layer sum needs.
            out.put(format!("{c}.{name}_mean"), d.mean(), "us");
            let per_iter = ratio(d.sum() / 1e3, run.ms.len() as f64);
            out.put(format!("{c}.request_to_steal_ms_per_iter"), per_iter, "ms");
        }
    }
    out.put(
        format!("{c}.traced_ms"),
        Dist::new(run.ms.clone()).q_or_zero(0.5),
        "ms",
    );
}

/// Median nanoseconds per operation of `f`, which performs `ops`
/// operations, over `rounds` timed calls after two warm-ups.
fn ns_per_op(ops: usize, rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let samples = (0..rounds)
        .map(|_| time_ms(&mut f) * 1e6 / ops as f64)
        .collect();
    Dist::new(samples).q_or_zero(0.5)
}

/// Single-thread deque microbenchmarks: the owner path and the steal path
/// of both deques, in nanoseconds per operation.
fn deque_layers(out: &mut Report) {
    const OPS: usize = 1024;
    const ROUNDS: usize = 300;
    let job = |i: usize| i as *mut Job;
    let split = SplitDeque::new(OPS + 1);
    let v = ns_per_op(2 * OPS, ROUNDS, || {
        for i in 1..=OPS {
            split.push_bottom(job(i));
        }
        for _ in 0..OPS {
            black_box(split.pop_bottom(PopBottomMode::Standard));
        }
    });
    out.put("deque.split_push_pop_ns", v, "ns");
    let abp = AbpDeque::new(OPS + 1);
    let v = ns_per_op(2 * OPS, ROUNDS, || {
        for i in 1..=OPS {
            abp.push_bottom(job(i));
        }
        for _ in 0..OPS {
            black_box(abp.pop_bottom());
        }
    });
    out.put("deque.abp_push_pop_ns", v, "ns");
    // Steals advance `top` for good, so each round uses a fresh deque.
    let v = ns_per_op(OPS, ROUNDS, || {
        let d = SplitDeque::new(OPS + 1);
        for i in 1..=OPS {
            d.push_bottom(job(i));
        }
        for _ in 0..OPS {
            d.update_public_bottom(ExposurePolicy::One);
            black_box(d.pop_top());
        }
    });
    out.put("deque.split_expose_steal_ns", v, "ns");
    let v = ns_per_op(OPS, ROUNDS, || {
        let d = AbpDeque::new(OPS + 1);
        for i in 1..=OPS {
            d.push_bottom(job(i));
        }
        for _ in 0..OPS {
            black_box(d.pop_top());
        }
    });
    out.put("deque.abp_steal_ns", v, "ns");
}
