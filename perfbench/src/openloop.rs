//! The open-loop load generator: Poisson arrivals from
//! `vortex_bench::traffic`, each request timed from when it was due.
//!
//! The generator thread submits on schedule and, between arrivals, polls
//! every outstanding ticket (not only the oldest), so an answer's time is
//! observed close to when it lands. See [`Pace`] for how it waits.

use std::time::{Duration, Instant};

use vortex_bench::traffic::{ArrivalProcess, TrafficGen};
use vortex_linalg::rng::Xoshiro256PlusPlus;
use vortex_serve::{Prediction, Ticket};

use crate::probes::{steal_window, StealClock, StealShares};
use crate::trace::Tracer;

/// After the last arrival, outstanding requests get this long to answer
/// before they count as timed out.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Due time, seconds after the window opens.
    pub due_s: f64,
    /// Test-set sample the request carries.
    pub sample: usize,
    /// Routing key.
    pub key: u64,
}

/// The schedule of a `seconds`-long window at `rate` requests/s.
pub fn schedule(rate: f64, seconds: f64, seed: u64, n_samples: usize) -> Vec<Arrival> {
    let mut pick = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5A4D_504C);
    TrafficGen::new(ArrivalProcess::poisson(rate), seed)
        .take_while(|&t| t < seconds)
        .map(|due_s| Arrival {
            due_s,
            sample: pick.next_below(n_samples),
            key: pick.next_u64(),
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug)]
pub struct Outcome {
    /// Replica the request was routed to (0 without a fleet).
    pub replica: usize,
    /// How late the generator submitted it, s.
    pub late_s: f64,
    /// Duration of the submit call, s.
    pub submit_s: f64,
    /// Due time → answer observed, s.
    pub latency_s: f64,
    /// Submit returned → answer observed, s.
    pub after_submit_s: f64,
    /// The steal window the request was due (or sent) in.
    pub window: usize,
    /// The steal window its answer was observed in.
    pub answered_window: usize,
    pub answer: Result<Prediction, String>,
}

/// One measured window of requests.
#[derive(Debug)]
pub struct Measured {
    /// One outcome per request, in request order.
    pub outcomes: Vec<Outcome>,
    /// Host steal of the measured CPU while the window ran.
    pub steal: StealShares,
}

/// How the generator waits between arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Poll and yield: the generator's core never idles, so a wake-up
    /// never waits for the host to resume an idle vCPU. For a pool that is
    /// mostly idle.
    Spin,
    /// Block on the oldest outstanding ticket until it is answered or the
    /// next arrival is due, then poll every ticket. For a generator that
    /// shares its core with a busy pool: spinning would take the pool's
    /// CPU time.
    Block,
}

/// Drives `arrivals` through `submit`, watching host steal on `cpu`
/// (all CPUs for `None`).
///
/// `submit_span` names the span recorded around each submit call when
/// `tracer` is set; the request's own span (due → answer) is its parent.
pub fn drive(
    arrivals: &[Arrival],
    pace: Pace,
    cpu: Option<usize>,
    mut submit: impl FnMut(&Arrival) -> Result<(usize, Ticket), String>,
    tracer: Option<(&Tracer, &'static str)>,
) -> Measured {
    struct Pending {
        index: usize,
        replica: usize,
        ticket: Ticket,
        submitted: Instant,
        submit_end: Instant,
    }
    let start = Instant::now() + Duration::from_millis(1);
    let due_of = |a: &Arrival| start + Duration::from_secs_f64(a.due_s);
    let mut outcomes: Vec<Option<Outcome>> = (0..arrivals.len()).map(|_| None).collect();
    let mut pending: Vec<Pending> = Vec::new();
    let mut steal = StealClock::start(cpu, start);

    // Waits up to `block` for the oldest ticket (none: no wait), then
    // collects every answered ticket.
    let poll = |pending: &mut Vec<Pending>,
                outcomes: &mut Vec<Option<Outcome>>,
                block: Option<Duration>| {
        let mut answered = Vec::new();
        if let Some(wait) = block {
            let oldest = (0..pending.len()).min_by_key(|&i| pending[i].index);
            if let Some(i) = oldest {
                if let Some(answer) = pending[i].ticket.wait_timeout(wait) {
                    answered.push((pending.swap_remove(i), answer, Instant::now()));
                }
            } else {
                std::thread::sleep(wait);
            }
        }
        let mut i = 0;
        while i < pending.len() {
            match pending[i].ticket.wait_timeout(Duration::ZERO) {
                Some(answer) => answered.push((pending.swap_remove(i), answer, Instant::now())),
                None => i += 1,
            }
        }
        for (p, answer, now) in answered {
            let due = due_of(&arrivals[p.index]);
            if let Some((t, submit_span)) = tracer {
                let root = t.record("request", due, now, None, p.index as u64);
                t.record(
                    submit_span,
                    p.submitted,
                    p.submit_end,
                    Some(root),
                    p.index as u64,
                );
            }
            outcomes[p.index] = Some(Outcome {
                replica: p.replica,
                late_s: (p.submitted - due).as_secs_f64(),
                submit_s: (p.submit_end - p.submitted).as_secs_f64(),
                latency_s: (now - due).as_secs_f64(),
                after_submit_s: (now - p.submit_end).as_secs_f64(),
                window: steal_window(arrivals[p.index].due_s),
                answered_window: steal_window((now - start).as_secs_f64()),
                answer: answer.map_err(|e| e.to_string()),
            });
        }
    };

    for (index, arrival) in arrivals.iter().enumerate() {
        let due = due_of(arrival);
        loop {
            poll(&mut pending, &mut outcomes, None);
            let now = Instant::now();
            steal.tick(now);
            if now >= due {
                break;
            }
            match pace {
                Pace::Spin => std::thread::yield_now(),
                Pace::Block => poll(&mut pending, &mut outcomes, Some(due - now)),
            }
        }
        let submitted = Instant::now();
        let result = submit(arrival);
        let submit_end = Instant::now();
        match result {
            Ok((replica, ticket)) => pending.push(Pending {
                index,
                replica,
                ticket,
                submitted,
                submit_end,
            }),
            Err(e) => {
                outcomes[index] = Some(Outcome {
                    replica: 0,
                    late_s: (submitted - due).as_secs_f64(),
                    submit_s: (submit_end - submitted).as_secs_f64(),
                    latency_s: f64::INFINITY,
                    after_submit_s: f64::INFINITY,
                    window: steal_window(arrival.due_s),
                    answered_window: steal_window((submit_end - start).as_secs_f64()),
                    answer: Err(e),
                })
            }
        }
    }
    let give_up = Instant::now() + ANSWER_TIMEOUT;
    while !pending.is_empty() && Instant::now() < give_up {
        steal.tick(Instant::now());
        match pace {
            Pace::Spin => {
                poll(&mut pending, &mut outcomes, None);
                std::thread::yield_now();
            }
            Pace::Block => poll(&mut pending, &mut outcomes, Some(Duration::from_millis(10))),
        }
    }
    for p in pending {
        outcomes[p.index] = Some(Outcome {
            replica: p.replica,
            late_s: 0.0,
            submit_s: (p.submit_end - p.submitted).as_secs_f64(),
            latency_s: f64::INFINITY,
            after_submit_s: f64::INFINITY,
            window: steal_window(arrivals[p.index].due_s),
            answered_window: usize::MAX,
            answer: Err("no answer before the timeout".into()),
        });
    }
    Measured {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every arrival has an outcome"))
            .collect(),
        steal: steal.finish(),
    }
}
