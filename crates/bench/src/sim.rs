//! The virtual-time serving simulator behind the `fleet` and `training`
//! experiments: one non-idling micro-batching [`Worker`] with one
//! service-cost model, optionally shared with a co-resident trainer that
//! yields through the real [`YieldGate`]. Pure virtual time — no wall
//! clock, no threads — so every latency reproduces bit for bit.

use std::collections::VecDeque;

use vortex_train::YieldGate;

use crate::traffic::Request;

/// Fixed per-batch dispatch overhead, virtual seconds.
pub const T_BATCH: f64 = 4.0e-4;
/// Fixed per-sample service cost, virtual seconds.
pub const T_SAMPLE: f64 = 1.0e-4;
/// Micro-batch ceiling of a simulated worker.
pub const MAX_BATCH: usize = 16;

/// A served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Completion time minus arrival time, virtual seconds.
    pub latency: f64,
    /// Whether it completed by its deadline (always, without one).
    pub on_time: bool,
    /// The request's tenant.
    pub tenant: usize,
}

/// One simulated single-server worker behind a FIFO queue. Whenever it
/// frees up at virtual time `s`, a co-resident trainer with epochs left
/// takes it for one mini-epoch unless its gate is parked at the number
/// of requests arrived by `s`; otherwise the worker serves up to
/// [`MAX_BATCH`] of them, finishing at `s + T_BATCH + n·T_SAMPLE`, or
/// idles until the next arrival.
#[derive(Debug, Clone, Default)]
pub struct Worker {
    busy_until: f64,
    queue: VecDeque<Request>,
    epochs_left: usize,
    epoch_cost: f64,
    gate: Option<YieldGate>,
    train_done: f64,
}

impl Worker {
    /// This worker shared with a trainer wanting `epochs` mini-epochs of
    /// `epoch_cost` virtual seconds, parking behind `gate` (`None`: a
    /// greedy trainer that never yields).
    #[must_use]
    pub fn with_trainer(mut self, epoch_cost: f64, epochs: usize, gate: Option<YieldGate>) -> Self {
        self.epochs_left = epochs;
        self.epoch_cost = epoch_cost;
        self.gate = gate;
        self
    }

    /// Virtual time the trainer's latest mini-epoch finished (0 before
    /// the first, or without a trainer).
    pub fn train_done(&self) -> f64 {
        self.train_done
    }

    /// Requests queued and not yet served.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues `req`, once [`advance`](Self::advance) has run the worker
    /// up to `req.time`.
    pub fn push(&mut self, req: Request) {
        self.queue.push_back(req);
    }

    /// Runs every mini-epoch and batch that *starts* before virtual time
    /// `t`, appending served requests to `out`. Every arrival before `t`
    /// must already be pushed, in time order.
    pub fn advance(&mut self, t: f64, out: &mut Vec<Completion>) {
        while self.busy_until < t {
            let s = self.busy_until;
            let arrived = self.queue.partition_point(|r| r.time <= s);
            if self.epochs_left > 0 && !self.gate.as_mut().is_some_and(|g| g.parked(arrived)) {
                self.epochs_left -= 1;
                self.busy_until = s + self.epoch_cost;
                self.train_done = self.busy_until;
            } else if arrived > 0 {
                let n = arrived.min(MAX_BATCH);
                let done = s + T_BATCH + n as f64 * T_SAMPLE;
                out.extend(self.queue.drain(..n).map(|req| Completion {
                    latency: done - req.time,
                    on_time: req.deadline.map_or(true, |d| done <= d),
                    tenant: req.tenant,
                }));
                self.busy_until = done;
            } else if let Some(head) = self.queue.front() {
                self.busy_until = head.time;
            } else {
                break;
            }
        }
    }

    /// Replays a whole time-ordered trace through this one worker until
    /// every request is served and the trainer, if any, is done.
    pub fn replay(&mut self, trace: &[Request]) -> Vec<Completion> {
        let mut out = Vec::with_capacity(trace.len());
        for req in trace {
            self.advance(req.time, &mut out);
            self.push(req.clone());
        }
        self.advance(f64::INFINITY, &mut out);
        out
    }
}

/// The completions' latencies, sorted ascending for percentiles.
pub fn sorted_latencies(completions: &[Completion]) -> Vec<f64> {
    let mut latencies: Vec<f64> = completions.iter().map(|c| c.latency).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(times: &[f64]) -> Vec<Request> {
        times
            .iter()
            .map(|&time| Request {
                time,
                tenant: 0,
                deadline: None,
            })
            .collect()
    }

    fn latencies(completions: &[Completion]) -> Vec<f64> {
        completions.iter().map(|c| c.latency).collect()
    }

    #[test]
    fn three_arrivals_complete_at_hand_computed_times() {
        // Idle until 1 ms; the first arrival is served alone; the other
        // two arrive mid-batch and share the next one.
        let times = [1.0e-3, 1.1e-3, 1.2e-3];
        let out = Worker::default().replay(&trace(&times));
        let first = 1.0e-3 + T_BATCH + 1.0 * T_SAMPLE;
        let second = first + T_BATCH + 2.0 * T_SAMPLE;
        assert_eq!(
            latencies(&out),
            [first - times[0], second - times[1], second - times[2]]
        );
        assert!(out.iter().all(|c| c.on_time));
    }

    #[test]
    fn deadlines_judge_the_completion_time() {
        let mut reqs = trace(&[0.0, 0.0]);
        reqs[0].deadline = Some(T_BATCH + 2.0 * T_SAMPLE);
        reqs[1].deadline = Some(T_BATCH);
        let out = Worker::default().replay(&reqs);
        assert_eq!(
            out.iter().map(|c| c.on_time).collect::<Vec<_>>(),
            [true, false]
        );
    }

    /// Twenty arrivals land inside the first 1 ms mini-epoch: more than
    /// one batch and above the high-water mark.
    fn burst() -> Vec<Request> {
        trace(&(1..=20).map(|k| k as f64 * 1.0e-5).collect::<Vec<_>>())
    }

    const EPOCH: f64 = 1.0e-3;

    #[test]
    fn trainer_parks_at_high_water_and_resumes_at_low_water() {
        let reqs = burst();
        let gate = YieldGate::new(8, 2).expect("valid band");
        let mut w = Worker::default().with_trainer(EPOCH, 2, Some(gate));
        let out = w.replay(&reqs);
        // Epoch 1 starts on an empty queue; at 1 ms the backlog of 20
        // parks the trainer. A 16-batch leaves 4 waiting — between the
        // marks, so it stays parked — and only the drained queue lets
        // epoch 2 run.
        let first = EPOCH + T_BATCH + 16.0 * T_SAMPLE;
        let second = first + T_BATCH + 4.0 * T_SAMPLE;
        let expected: Vec<f64> = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| if k < 16 { first } else { second } - r.time)
            .collect();
        assert_eq!(latencies(&out), expected);
        assert_eq!(w.train_done(), second + EPOCH);
    }

    #[test]
    fn greedy_trainer_never_parks() {
        let reqs = burst();
        let mut w = Worker::default().with_trainer(EPOCH, 2, None);
        let out = w.replay(&reqs);
        let trained = EPOCH + EPOCH;
        let first = trained + T_BATCH + 16.0 * T_SAMPLE;
        let second = first + T_BATCH + 4.0 * T_SAMPLE;
        let expected: Vec<f64> = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| if k < 16 { first } else { second } - r.time)
            .collect();
        assert_eq!(latencies(&out), expected);
        assert_eq!(w.train_done(), trained);
    }

    #[test]
    fn trainer_finishes_after_the_last_request() {
        let mut w = Worker::default().with_trainer(EPOCH, 3, None);
        let out = w.replay(&trace(&[]));
        assert!(out.is_empty());
        assert_eq!(w.train_done(), EPOCH + EPOCH + EPOCH);
    }
}
