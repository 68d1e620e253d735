//! The four workloads: `fib`, `flood` and `pbbs` run fork-join code inside
//! `ThreadPool::run`; `ingress` feeds a serve window through
//! `ThreadPool::spawn`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lcws_core::{join, scope, ThreadPool};
use pbbs_rs::bench::{graphs, seq_ops, sorting};
use pbbs_rs::gen::{graphs as graph_gen, seqs};
use pbbs_rs::Graph;

use crate::harness::{CompRun, Iteration, Workload};
use crate::report::Report;
use crate::stats::{ratio, Dist, Tally};

/// `lat_p50_us` and `drain_tasks_per_s` of a closed-loop fork-join
/// workload: each iteration of the signal composition is one request,
/// due the moment the previous one completed; its tasks are the jobs the
/// pool ran, completed at the median iteration's pace.
fn closed_loop_end_to_end(signal: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
    let d = Dist::new(signal.ms.iter().map(|ms| ms * 1e3).collect());
    lines.push(d.describe("signal.request", "us"));
    out.put("lat_p50_us", d.q_or_zero(0.5), "us");
    let tasks_per_iter = ratio(signal.snap.tasks_run() as f64, d.len() as f64);
    out.put(
        "drain_tasks_per_s",
        ratio(tasks_per_iter, d.q_or_zero(0.5) / 1e6),
        "1/s",
    );
}

/// The `ingress.*` family has no traffic on a fork-join workload: every
/// value is 0 over 0 samples.
fn no_ingress_layers(out: &mut Report, lines: &mut Vec<String>) {
    lines.push("ingress.*: no injector traffic on this workload (n=0)".into());
    for (name, unit) in [
        ("ingress.lat_p99_us", "us"),
        ("ingress.spawn_ns", "ns"),
        ("ingress.start_wait_us_p50", "us"),
        ("ingress.start_wait_us_p99", "us"),
        ("ingress.gen_lag_us_p99", "us"),
        ("ingress.wakes_per_task", "count/task"),
        ("ingress.parks_per_ktask", "count/ktask"),
    ] {
        out.put(name, 0.0, unit);
    }
}

fn timed_run<T: Send>(pool: &ThreadPool, f: impl FnOnce() -> T + Send) -> (f64, T) {
    let t = Instant::now();
    let v = pool.run(f);
    (t.elapsed().as_secs_f64() * 1e3, v)
}

// ---------------------------------------------------------------- fib

pub struct Fib {
    n: u64,
    expected: u64,
}

fn pfib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| pfib(n - 1), || pfib(n - 2));
    a + b
}

fn sfib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    sfib(n - 1) + sfib(n - 2)
}

impl Fib {
    pub fn new(n: u64) -> Fib {
        Fib {
            n,
            expected: sfib(n),
        }
    }
}

impl Workload for Fib {
    fn iterate(&self, pool: &ThreadPool, _comp: &'static str) -> Iteration {
        let (ms, v) = timed_run(pool, || pfib(black_box(self.n)));
        Iteration {
            ms,
            snap: pool.metrics(),
            tally: Tally::check(v == self.expected),
        }
    }
    fn seq(&self) {
        black_box(sfib(black_box(self.n)));
    }
    fn trace_capacity(&self) -> usize {
        1 << 19
    }
    fn end_to_end(&self, signal: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
        closed_loop_end_to_end(signal, out, lines);
    }
    fn layers(
        &self,
        _: &HashMap<&'static str, CompRun>,
        out: &mut Report,
        lines: &mut Vec<String>,
    ) {
        no_ingress_layers(out, lines);
    }
}

// -------------------------------------------------------------- flood

/// The root `scope` spawns `tasks` near-empty tasks.
pub struct Flood {
    tasks: u64,
}

impl Flood {
    pub fn new(tasks: u64) -> Flood {
        Flood { tasks }
    }
}

impl Workload for Flood {
    fn iterate(&self, pool: &ThreadPool, _comp: &'static str) -> Iteration {
        let hits = AtomicU64::new(0);
        let (ms, ()) = timed_run(pool, || {
            scope(|s| {
                for _ in 0..self.tasks {
                    let hits = &hits;
                    s.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        });
        Iteration {
            ms,
            snap: pool.metrics(),
            tally: Tally::expect_count(self.tasks, hits.into_inner()),
        }
    }
    fn seq(&self) {
        let hits = AtomicU64::new(0);
        for _ in 0..black_box(self.tasks) {
            black_box(&hits).fetch_add(1, Ordering::Relaxed);
        }
    }
    fn trace_capacity(&self) -> usize {
        1 << 18
    }
    fn end_to_end(&self, signal: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
        closed_loop_end_to_end(signal, out, lines);
    }
    fn layers(
        &self,
        _: &HashMap<&'static str, CompRun>,
        out: &mut Report,
        lines: &mut Vec<String>,
    ) {
        no_ingress_layers(out, lines);
    }
}

// --------------------------------------------------------------- pbbs

/// Three PBBS instances generated from the seed, with their sequential
/// references computed at set-up.
pub struct Pbbs {
    sort_in: Vec<f64>,
    sort_ref: Vec<f64>,
    graph: Graph,
    bfs_ref: Vec<u32>,
    dedup_in: Vec<u64>,
    dedup_ref: Vec<u64>,
    /// Per composition: each instance's times in ms.
    parts: Mutex<HashMap<&'static str, [Vec<f64>; 3]>>,
}

const PBBS_INSTANCES: [&str; 3] = [
    "comparisonSort.randomSeq_double",
    "breadthFirstSearch.rMatGraph",
    "removeDuplicates.randomSeq_int",
];

fn seq_sort(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

impl Pbbs {
    pub fn new(seed: u64) -> Pbbs {
        let s = seed.wrapping_mul(3);
        let sort_in = seqs::random_f64_seq(300_000, s);
        let graph = graph_gen::rmat_graph(30_000, 150_000, s + 1);
        let dedup_in = seqs::random_seq(500_000, u64::MAX >> 1, s + 2);
        Pbbs {
            sort_ref: seq_sort(&sort_in),
            bfs_ref: graphs::bfs_seq(&graph, 0),
            dedup_ref: seq_ops::remove_duplicates_seq(&dedup_in),
            sort_in,
            graph,
            dedup_in,
            parts: Mutex::new(HashMap::new()),
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for Pbbs {
    fn iterate(&self, pool: &ThreadPool, comp: &'static str) -> Iteration {
        let (ms, (tally, parts)) = timed_run(pool, || {
            let mut tally = Tally::default();
            let mut parts = [0.0; 3];
            let t = Instant::now();
            let mut v = self.sort_in.clone();
            sorting::comparison_sort_bench(&mut v);
            parts[0] = t.elapsed().as_secs_f64() * 1e3;
            tally.add(Tally::check(same_bits(&v, &self.sort_ref)));
            let t = Instant::now();
            let d = graphs::bfs(&self.graph, 0);
            parts[1] = t.elapsed().as_secs_f64() * 1e3;
            tally.add(Tally::check(d == self.bfs_ref));
            let t = Instant::now();
            let u = seq_ops::remove_duplicates(&self.dedup_in);
            parts[2] = t.elapsed().as_secs_f64() * 1e3;
            tally.add(Tally::check(u == self.dedup_ref));
            (tally, parts)
        });
        let mut all = self.parts.lock().expect("parts lock poisoned");
        let slot = all.entry(comp).or_default();
        for (k, p) in parts.into_iter().enumerate() {
            slot[k].push(p);
        }
        Iteration {
            ms,
            snap: pool.metrics(),
            tally,
        }
    }
    fn seq(&self) {
        black_box(seq_sort(&self.sort_in));
        black_box(graphs::bfs_seq(&self.graph, 0));
        black_box(seq_ops::remove_duplicates_seq(&self.dedup_in));
    }
    fn trace_capacity(&self) -> usize {
        1 << 18
    }
    fn discard_samples(&self) {
        self.parts.lock().expect("parts lock poisoned").clear();
    }
    fn end_to_end(&self, signal: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
        closed_loop_end_to_end(signal, out, lines);
    }
    fn layers(
        &self,
        _: &HashMap<&'static str, CompRun>,
        out: &mut Report,
        lines: &mut Vec<String>,
    ) {
        // Per-instance times stay in the report lines: the result line
        // carries only names every workload reports.
        let all = self.parts.lock().expect("parts lock poisoned");
        let mut comps: Vec<_> = all.iter().collect();
        comps.sort_by_key(|(c, _)| **c);
        for (comp, parts) in comps {
            for (name, p) in PBBS_INSTANCES.iter().zip(parts) {
                lines.push(Dist::new(p.clone()).describe(&format!("pbbs.{name}.{comp}"), "ms"));
            }
        }
        for (name, t) in PBBS_INSTANCES.iter().zip([
            time_once(|| black_box(seq_sort(&self.sort_in)).len()),
            time_once(|| black_box(graphs::bfs_seq(&self.graph, 0)).len()),
            time_once(|| black_box(seq_ops::remove_duplicates_seq(&self.dedup_in)).len()),
        ]) {
            lines.push(format!("pbbs.{name}.seq: {t:.4} ms (n=1)"));
        }
        no_ingress_layers(out, lines);
    }
}

fn time_once(f: impl FnOnce() -> usize) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

// ------------------------------------------------------------ ingress

/// Per-task records shared with the submitted closures, reused window
/// after window.
struct Slots {
    base: Instant,
    start: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    runs: Vec<AtomicU32>,
    completed: AtomicU64,
}

impl Slots {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
    fn complete(&self, i: usize) {
        self.start[i].store(self.now(), Ordering::Relaxed);
        self.runs[i].fetch_add(1, Ordering::Relaxed);
        self.done[i].store(self.now(), Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Release);
    }
    fn reset(&self) {
        for r in &self.runs {
            r.store(0, Ordering::Relaxed);
        }
        self.completed.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct IngressSamples {
    lat_ns: Vec<f64>,
    start_wait_ns: Vec<f64>,
    gen_lag_ns: Vec<f64>,
    spawn_ns: Vec<f64>,
}

/// One serve window per iteration: an open-loop steady phase of
/// fire-and-forget spawns at `rate` tasks/s, then a burst of `burst`
/// spawns drained through `shutdown`.
pub struct Ingress {
    period_ns: u64,
    steady: usize,
    burst: usize,
    slots: Arc<Slots>,
    samples: Mutex<HashMap<&'static str, IngressSamples>>,
}

impl Ingress {
    pub fn new(rate_per_s: u64, steady: usize, burst: usize) -> Ingress {
        let n = steady + burst;
        let cells = || (0..n).map(|_| AtomicU64::new(0)).collect();
        Ingress {
            period_ns: 1_000_000_000 / rate_per_s,
            steady,
            burst,
            slots: Arc::new(Slots {
                base: Instant::now(),
                start: cells(),
                done: cells(),
                runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
                completed: AtomicU64::new(0),
            }),
            samples: Mutex::new(HashMap::new()),
        }
    }

    fn submit(&self, pool: &ThreadPool, i: usize) {
        let s = Arc::clone(&self.slots);
        drop(pool.spawn(move || s.complete(i)));
    }

    /// Burst `lo..hi` and drain it through `shutdown`; returns the drain
    /// time in ms, the window's counters, and the per-task checks.
    fn burst_and_drain(&self, pool: &ThreadPool, lo: usize) -> (f64, lcws_core::Snapshot, Tally) {
        let hi = lo + self.burst;
        let t = Instant::now();
        for i in lo..hi {
            self.submit(pool, i);
        }
        let snap = pool.shutdown();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let once = self.slots.runs[..hi]
            .iter()
            .filter(|r| r.load(Ordering::Relaxed) == 1)
            .count() as u64;
        let mut tally = Tally::expect_count(hi as u64, once);
        tally.add(Tally::check(
            snap.injector_pushes() == hi as u64 && snap.injector_pops() == hi as u64,
        ));
        (ms, snap, tally)
    }
}

impl Workload for Ingress {
    fn iterate(&self, pool: &ThreadPool, comp: &'static str) -> Iteration {
        let s = &self.slots;
        s.reset();
        pool.serve();
        let mut lag = Vec::with_capacity(self.steady);
        let mut submitted = Vec::with_capacity(self.steady);
        let mut spawn_ns = Vec::with_capacity(self.steady);
        let t0 = s.now() + 50_000;
        for i in 0..self.steady {
            let due = t0 + i as u64 * self.period_ns;
            let mut now = s.now();
            while now < due {
                std::hint::spin_loop();
                now = s.now();
            }
            lag.push((now - due) as f64);
            submitted.push(now);
            let t = Instant::now();
            self.submit(pool, i);
            spawn_ns.push(t.elapsed().as_nanos() as f64);
        }
        while s.completed.load(Ordering::Acquire) < self.steady as u64 {
            std::thread::yield_now();
        }
        let (ms, snap, tally) = self.burst_and_drain(pool, self.steady);

        let mut all = self.samples.lock().expect("samples lock poisoned");
        let smp = all.entry(comp).or_default();
        for (i, &sent) in submitted.iter().enumerate() {
            let due = t0 + i as u64 * self.period_ns;
            let start = s.start[i].load(Ordering::Relaxed);
            let done = s.done[i].load(Ordering::Relaxed);
            smp.lat_ns.push(done.saturating_sub(due) as f64);
            smp.start_wait_ns.push(start.saturating_sub(sent) as f64);
        }
        smp.gen_lag_ns.extend(lag);
        smp.spawn_ns.extend(spawn_ns);
        Iteration { ms, snap, tally }
    }
    /// A single-worker serve window has no executor until `shutdown`
    /// drains inline, so T₁ is the burst alone.
    fn iterate_p1(&self, pool: &ThreadPool, _comp: &'static str) -> Iteration {
        self.slots.reset();
        pool.serve();
        let (ms, snap, tally) = self.burst_and_drain(pool, 0);
        Iteration { ms, snap, tally }
    }
    fn seq(&self) {
        for i in 0..self.burst {
            self.slots.complete(i);
        }
        self.slots.reset();
    }
    fn trace_capacity(&self) -> usize {
        1 << 17
    }
    fn discard_samples(&self) {
        self.samples.lock().expect("samples lock poisoned").clear();
    }
    fn end_to_end(&self, signal: &CompRun, out: &mut Report, lines: &mut Vec<String>) {
        let all = self.samples.lock().expect("samples lock poisoned");
        let smp = &all["signal"];
        let lat = Dist::new(smp.lat_ns.iter().map(|x| x / 1e3).collect());
        lines.push(lat.describe("signal.task_latency", "us"));
        lines.push(
            Dist::new(smp.gen_lag_ns.iter().map(|x| x / 1e3).collect())
                .describe("signal.gen_lag", "us"),
        );
        out.put("lat_p50_us", lat.q_or_zero(0.5), "us");
        let drain = Dist::new(signal.ms.clone());
        out.put(
            "drain_tasks_per_s",
            ratio(self.burst as f64, drain.q_or_zero(0.5) / 1e3),
            "1/s",
        );
    }
    fn layers(
        &self,
        runs: &HashMap<&'static str, CompRun>,
        out: &mut Report,
        lines: &mut Vec<String>,
    ) {
        let all = self.samples.lock().expect("samples lock poisoned");
        let smp = &all["signal"];
        let us = |v: &[f64]| Dist::new(v.iter().map(|x| x / 1e3).collect());
        // The steady-phase p99 is decided by a few multi-ms stalls per
        // run, so it is a per-layer figure here, not a gated one.
        let lat = us(&smp.lat_ns);
        lines.push(lat.describe("ingress.lat", "us"));
        out.put("ingress.lat_p99_us", lat.q_or_zero(0.99), "us");
        let spawn = Dist::new(smp.spawn_ns.clone());
        let wait = us(&smp.start_wait_ns);
        let lag = us(&smp.gen_lag_ns);
        lines.push(spawn.describe("ingress.spawn", "ns"));
        lines.push(wait.describe("ingress.start_wait", "us"));
        lines.push(lag.describe("ingress.gen_lag", "us"));
        out.put("ingress.spawn_ns", spawn.q_or_zero(0.5), "ns");
        out.put("ingress.start_wait_us_p50", wait.q_or_zero(0.5), "us");
        out.put("ingress.start_wait_us_p99", wait.q_or_zero(0.99), "us");
        out.put("ingress.gen_lag_us_p99", lag.q_or_zero(0.99), "us");
        let snap = &runs["signal"].snap;
        let n = snap.tasks_run() as f64;
        out.put(
            "ingress.wakes_per_task",
            ratio(snap.wake_attempts() as f64, n),
            "count/task",
        );
        out.put(
            "ingress.parks_per_ktask",
            ratio(1e3 * snap.parks() as f64, n),
            "count/ktask",
        );
    }
}
