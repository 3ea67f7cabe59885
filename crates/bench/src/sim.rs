//! The virtual-time serving simulator behind the `fleet` and `training`
//! experiments: one non-idling micro-batching [`Worker`] with one
//! service-cost model, optionally shared with a co-resident trainer that
//! follows the real job's yield rule — it steps aside for requests at
//! sample boundaries. Pure virtual time — no wall clock, no threads — so
//! every latency reproduces bit for bit.

use std::collections::VecDeque;

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
/// frees up at virtual time `s` with requests arrived by `s`, it serves
/// up to [`MAX_BATCH`] of them, finishing at `s + T_BATCH + n·T_SAMPLE`.
/// Otherwise a co-resident trainer with samples left takes it for one
/// training sample, or it idles until the next arrival. This is the
/// real job's sample-boundary preemption: the trainer runs whole
/// samples until a request arrives, at least one.
#[derive(Debug, Clone, Default)]
pub struct Worker {
    busy_until: f64,
    queue: VecDeque<Request>,
    samples_left: usize,
    sample_cost: f64,
    train_done: f64,
}

impl Worker {
    /// This worker shared with a trainer wanting `epochs` mini-epochs of
    /// `epoch_cost` virtual seconds, each of `samples_per_epoch` equal
    /// samples (1: a trainer that yields only between mini-epochs).
    #[must_use]
    pub fn with_trainer(
        mut self,
        epoch_cost: f64,
        epochs: usize,
        samples_per_epoch: usize,
    ) -> Self {
        self.samples_left = epochs * samples_per_epoch;
        self.sample_cost = epoch_cost / samples_per_epoch as f64;
        self
    }

    /// Virtual time the trainer's latest sample finished (0 before the
    /// first, or without a trainer).
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

    /// Runs every training sample and batch that *starts* before virtual
    /// time `t`, appending served requests to `out`. Every arrival before
    /// `t` must already be pushed, in time order.
    pub fn advance(&mut self, t: f64, out: &mut Vec<Completion>) {
        while self.busy_until < t {
            let s = self.busy_until;
            let arrived = self.queue.partition_point(|r| r.time <= s);
            if arrived > 0 {
                let n = arrived.min(MAX_BATCH);
                let done = s + T_BATCH + n as f64 * T_SAMPLE;
                out.extend(self.queue.drain(..n).map(|req| Completion {
                    latency: done - req.time,
                    on_time: req.deadline.map_or(true, |d| done <= d),
                    tenant: req.tenant,
                }));
                self.busy_until = done;
            } else if self.samples_left > 0 {
                self.samples_left -= 1;
                self.busy_until = s + self.sample_cost;
                self.train_done = self.busy_until;
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

    const EPOCH: f64 = 1.0e-3;

    #[test]
    fn a_request_arriving_mid_sample_waits_for_the_rest_of_that_sample() {
        // Four 0.25 ms samples per epoch; the request lands inside the
        // second sample, is served when it ends, and the trainer takes
        // the rest of its samples afterwards.
        let sample = EPOCH / 4.0;
        let reqs = trace(&[sample + 1.0e-4]);
        let mut w = Worker::default().with_trainer(EPOCH, 2, 4);
        let out = w.replay(&reqs);
        let served = (sample + sample) + T_BATCH + T_SAMPLE;
        assert_eq!(latencies(&out), [served - reqs[0].time]);
        let mut done = served;
        for _ in 2..8 {
            done += sample;
        }
        assert_eq!(w.train_done(), done);
    }

    #[test]
    fn one_sample_per_epoch_waits_for_the_rest_of_the_epoch() {
        let reqs = trace(&[1.0e-4]);
        let mut w = Worker::default().with_trainer(EPOCH, 2, 1);
        let out = w.replay(&reqs);
        let served = EPOCH + T_BATCH + T_SAMPLE;
        assert_eq!(latencies(&out), [served - reqs[0].time]);
        assert_eq!(w.train_done(), served + EPOCH);
    }

    #[test]
    fn no_sample_starts_while_a_request_is_queued() {
        // Twenty arrivals inside the first sample: more than one batch.
        // The trainer resumes only once both batches have drained the
        // queue, even though the second batch's requests waited through
        // the first.
        let sample = EPOCH / 10.0;
        let reqs = trace(&(1..=20).map(|k| k as f64 * 2.0e-6).collect::<Vec<_>>());
        let mut w = Worker::default().with_trainer(EPOCH, 1, 10);
        let out = w.replay(&reqs);
        let first = sample + T_BATCH + 16.0 * T_SAMPLE;
        let second = first + T_BATCH + 4.0 * T_SAMPLE;
        let expected: Vec<f64> = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| if k < 16 { first } else { second } - r.time)
            .collect();
        assert_eq!(latencies(&out), expected);
        let mut done = second;
        for _ in 1..10 {
            done += sample;
        }
        assert_eq!(w.train_done(), done);
    }

    #[test]
    fn trainer_finishes_after_the_last_request() {
        let mut w = Worker::default().with_trainer(EPOCH, 3, 1);
        let out = w.replay(&trace(&[]));
        assert!(out.is_empty());
        assert_eq!(w.train_done(), EPOCH + EPOCH + EPOCH);
    }
}
