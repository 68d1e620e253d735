//! Reductions of a merged, time-ordered trace (`ThreadPool::take_trace`)
//! into per-layer latencies. They work on plain `TraceEvent` slices, so
//! they are tested on synthetic streams without the `trace` feature.

use std::collections::HashMap;

use lcws_core::{EventKind, TraceEvent};

/// Signal delivery latencies: each thief-side `SignalSend` paired with
/// the victim's next `HandlerEntry`, in nanoseconds. A `SIGUSR1` sent
/// while one is already pending is merged into it, so one handler entry
/// answers every send pending on that victim; each of them yields a
/// sample. A `SignalSendFailed` withdraws that thief's latest pending send.
pub fn send_to_handler_ns(events: &[TraceEvent]) -> Vec<u64> {
    let mut pending: HashMap<u32, Vec<(u64, u16)>> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::SignalSend => pending
                .entry(e.payload)
                .or_default()
                .push((e.ts_ns, e.worker)),
            EventKind::SignalSendFailed => {
                if let Some(q) = pending.get_mut(&e.payload) {
                    if let Some(i) = q.iter().rposition(|&(_, thief)| thief == e.worker) {
                        q.remove(i);
                    }
                }
            }
            EventKind::HandlerEntry => {
                for (sent, _) in pending.remove(&u32::from(e.worker)).unwrap_or_default() {
                    out.push(e.ts_ns.saturating_sub(sent));
                }
            }
            _ => {}
        }
    }
    out
}

/// Exposure round trips on the thief: from the first `StealPrivate` (the
/// thief found only private work and asked for exposure) to that thief's
/// next `StealOk`, in nanoseconds. Covers the flag and the signal channel
/// alike. A `Park` on the thief abandons its open request, so a sample
/// never includes time the thief spent asleep.
pub fn request_to_steal_ns(events: &[TraceEvent]) -> Vec<u64> {
    let mut open: HashMap<u16, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::StealPrivate => {
                open.entry(e.worker).or_insert(e.ts_ns);
            }
            EventKind::StealOk => {
                if let Some(t0) = open.remove(&e.worker) {
                    out.push(e.ts_ns.saturating_sub(t0));
                }
            }
            EventKind::Park => {
                open.remove(&e.worker);
            }
            _ => {}
        }
    }
    out
}

/// Park durations: from a worker's `Park` to the next event that worker
/// records (a `SpuriousWake` on backstop expiry, or whatever it does once
/// woken), in nanoseconds. Wakes are recorded on the waker, so only the
/// parked worker's own events close the interval. A park with no later
/// event on its worker yields no sample.
pub fn parked_ns(events: &[TraceEvent]) -> Vec<u64> {
    let mut parked: HashMap<u16, u64> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        if let Some(t0) = parked.remove(&e.worker) {
            out.push(e.ts_ns.saturating_sub(t0));
        }
        if e.kind == EventKind::Park {
            parked.insert(e.worker, e.ts_ns);
        }
    }
    out
}

/// Jobs taken per injector pop: `(pops, jobs)` summed over the
/// `InjectorPop` events (payload = batch size).
pub fn injector_batches(events: &[TraceEvent]) -> (u64, u64) {
    events
        .iter()
        .filter(|e| e.kind == EventKind::InjectorPop)
        .fold((0, 0), |(pops, jobs), e| {
            (pops + 1, jobs + u64::from(e.payload))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, worker: u16, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_ns,
            worker,
            kind,
            payload: 0,
        }
    }

    fn to(ts_ns: u64, worker: u16, kind: EventKind, victim: u32) -> TraceEvent {
        TraceEvent {
            payload: victim,
            ..ev(ts_ns, worker, kind)
        }
    }

    #[test]
    fn one_handler_entry_answers_every_pending_send() {
        use EventKind::*;
        let events = [
            to(100, 1, SignalSend, 0),
            to(130, 2, SignalSend, 0), // merged with the pending one
            to(140, 1, SignalSend, 3), // other victim
            ev(400, 0, HandlerEntry),  // answers 100 and 130
            to(500, 1, SignalSend, 0),
            to(520, 2, SignalSend, 0),
            to(530, 2, SignalSendFailed, 0), // withdraws 520
            ev(600, 3, HandlerEntry),        // answers 140
            ev(700, 0, HandlerEntry),        // answers 500
            ev(800, 0, HandlerEntry),        // nothing pending
        ];
        assert_eq!(send_to_handler_ns(&events), vec![300, 270, 460, 200]);
    }

    #[test]
    fn request_pairs_with_same_thiefs_next_steal() {
        use EventKind::*;
        let events = [
            ev(100, 1, StealPrivate),
            ev(120, 1, StealPrivate), // repeated request: first one counts
            ev(130, 2, StealOk),      // other thief: not ours
            ev(150, 0, SignalSend),
            ev(400, 1, StealOk), // 400 - 100
            ev(500, 1, StealOk), // no open request
            ev(600, 2, StealPrivate),
            ev(650, 1, StealPrivate),
            ev(700, 2, StealOk), // 700 - 600
            ev(900, 1, StealOk), // 900 - 650
        ];
        assert_eq!(request_to_steal_ns(&events), vec![300, 100, 250]);
    }

    #[test]
    fn park_abandons_open_request() {
        use EventKind::*;
        let events = [
            ev(10, 1, StealPrivate),
            ev(20, 1, Park),
            ev(5_000, 1, SpuriousWake),
            ev(5_100, 1, StealOk),
            ev(6_000, 1, StealPrivate),
            ev(6_040, 1, StealOk),
        ];
        assert_eq!(request_to_steal_ns(&events), vec![40]);
    }

    #[test]
    fn park_closes_on_the_parked_workers_next_event() {
        use EventKind::*;
        let events = [
            ev(0, 1, Park),
            ev(50, 0, Unpark),  // recorded on the waker: does not close
            ev(80, 0, Push),    // other worker
            ev(90, 1, StealOk), // 90 - 0
            ev(100, 0, Park),
            ev(1_100, 0, SpuriousWake), // 1100 - 100
            ev(1_200, 0, Park),
            ev(1_300, 0, Park),     // 1300 - 1200, then parks again
            ev(1_350, 1, Park),     // never closed
            ev(1_500, 0, LocalPop), // 1500 - 1300
        ];
        assert_eq!(parked_ns(&events), vec![90, 1_000, 100, 200]);
    }

    #[test]
    fn injector_batches_sum_payloads() {
        let mut a = ev(1, 1, EventKind::InjectorPop);
        a.payload = 3;
        let mut b = ev(2, 1, EventKind::InjectorPop);
        b.payload = 5;
        let events = [a, ev(3, 1, EventKind::Push), b];
        assert_eq!(injector_batches(&events), (2, 8));
        assert_eq!(injector_batches(&[]), (0, 0));
    }
}
