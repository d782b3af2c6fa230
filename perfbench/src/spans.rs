//! Timing adapters for the simulator's three public traits.
//!
//! Each adapter wraps a real implementation, forwards every trait
//! method unchanged, and records a span (start, end in nanoseconds
//! since a process-wide epoch) around the calls that do work. Spans of
//! different replicas overlap under parallel cluster windows, so a
//! parent's self time is its wall time minus the *union* of its
//! children's spans ([`union_ns`]).

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use duplex::model::StageShape;
use duplex::sched::{
    BatchCheckpoint, MultiplexSpec, PendingRequest, Placement, PolicyContext, PreemptSpec,
    ReplicaSnapshot, RouteDecision, Router, SchedulingPolicy, StageDelta, StageExecutor,
    StageOutcome,
};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Calls and busy nanoseconds of one layer, with the spans behind them.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    pub calls: u64,
    pub ns: u64,
    pub spans: Vec<(u64, u64)>,
}

impl SpanLog {
    fn record(&mut self, start: u64, end: u64) {
        self.calls += 1;
        self.ns += end - start;
        self.spans.push((start, end));
    }
}

/// Total length of the union of `spans` (any order, may overlap).
pub fn union_ns(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in spans {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Stage shapes kept per path for the reference-pricing check and the
/// layer microcases, with the seconds the executor priced them at.
const SAMPLES_PER_PATH: usize = 24;

/// A [`StageExecutor`] that times every stage and splits the stages
/// into the executor's full path (mixed stages: `system` → `model` →
/// `compute`) and its incremental delta path (decode-only stages).
pub struct TimedExecutor<E> {
    inner: E,
    pub full: SpanLog,
    pub delta: SpanLog,
    /// Decode-only stages whose delta was a pure advance (the O(1) case).
    pub pure_advance: u64,
    /// Sampled `(shape, priced seconds)` of mixed stages.
    pub mixed_samples: Vec<(StageShape, f64)>,
    /// Sampled `(shape, priced seconds)` of decode-only stages.
    pub decode_samples: Vec<(StageShape, f64)>,
}

impl<E> TimedExecutor<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            full: SpanLog::default(),
            delta: SpanLog::default(),
            pure_advance: 0,
            mixed_samples: Vec::new(),
            decode_samples: Vec::new(),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Every stage span, both paths.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.full.spans.iter().chain(&self.delta.spans).copied()
    }

    fn note(&mut self, shape: &StageShape, start: u64, end: u64, seconds: f64) {
        let (log, samples) = if shape.is_mixed() {
            (&mut self.full, &mut self.mixed_samples)
        } else {
            (&mut self.delta, &mut self.decode_samples)
        };
        log.record(start, end);
        // Keep every 64th stage of each path until the sample is full:
        // spread over the run, deterministic for a given seed.
        if log.calls % 64 == 1 && samples.len() < SAMPLES_PER_PATH {
            samples.push((shape.clone(), seconds));
        }
    }
}

impl<E: StageExecutor> StageExecutor for TimedExecutor<E> {
    fn execute(&mut self, shape: &StageShape) -> StageOutcome {
        let start = now_ns();
        let out = self.inner.execute(shape);
        let end = now_ns();
        self.note(shape, start, end, out.seconds);
        out
    }

    fn execute_delta(&mut self, delta: &StageDelta, shape: &StageShape) -> StageOutcome {
        let start = now_ns();
        let out = self.inner.execute_delta(delta, shape);
        let end = now_ns();
        self.pure_advance += u64::from(delta.is_pure_advance());
        self.note(shape, start, end, out.seconds);
        out
    }

    fn export_batch(&self) -> Option<BatchCheckpoint> {
        self.inner.export_batch()
    }

    fn import_batch(&mut self, checkpoint: &BatchCheckpoint) {
        self.inner.import_batch(checkpoint);
    }
}

/// A [`Router`] that times every placement. The cluster borrows its
/// router as a trait object, so the log is shared with the caller
/// through an `Arc`.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    log: Arc<Mutex<SpanLog>>,
}

impl TimedRouter {
    pub fn wrap(inner: Box<dyn Router>) -> (Box<dyn Router>, Arc<Mutex<SpanLog>>) {
        let log = Arc::new(Mutex::new(SpanLog::default()));
        let router = Box::new(Self {
            inner,
            log: Arc::clone(&log),
        });
        (router, log)
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Router) -> T) -> T {
        let start = now_ns();
        let out = f(self.inner.as_mut());
        let end = now_ns();
        lock(&self.log).record(start, end);
        out
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        self.timed(|r| r.route(request, replicas))
    }

    fn decide(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> RouteDecision {
        self.timed(|r| r.decide(request, replicas))
    }

    fn place(&mut self, request: &PendingRequest, replicas: &[ReplicaSnapshot]) -> Placement {
        self.timed(|r| r.place(request, replicas))
    }

    fn export_state(&self) -> Vec<u64> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &[u64]) {
        self.inner.import_state(state);
    }
}

/// Lock a shared span log.
pub fn lock(log: &Mutex<SpanLog>) -> std::sync::MutexGuard<'_, SpanLog> {
    log.lock()
        .expect("no thread panics while holding a span log")
}

/// A [`SchedulingPolicy`] that times every admission decision. The
/// cluster owns its policies as boxed trait objects, so the log is
/// shared with the caller through an `Arc`.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    log: Arc<Mutex<SpanLog>>,
}

impl TimedPolicy {
    pub fn wrap(
        inner: Box<dyn SchedulingPolicy>,
    ) -> (Box<dyn SchedulingPolicy>, Arc<Mutex<SpanLog>>) {
        let log = Arc::new(Mutex::new(SpanLog::default()));
        let policy = Box::new(Self {
            inner,
            log: Arc::clone(&log),
        });
        (policy, log)
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn SchedulingPolicy) -> T) -> T {
        let start = now_ns();
        let out = f(self.inner.as_mut());
        let end = now_ns();
        lock(&self.log).record(start, end);
        out
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> usize {
        self.timed(|p| p.pick(pending, ctx))
    }

    fn admit_now(&mut self, pending: &[PendingRequest], ctx: &PolicyContext) -> Option<usize> {
        self.timed(|p| p.admit_now(pending, ctx))
    }

    fn preempt_spec(&self) -> Option<&PreemptSpec> {
        self.inner.preempt_spec()
    }

    fn multiplex_spec(&self) -> Option<&MultiplexSpec> {
        self.inner.multiplex_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::union_ns;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(5, 10), (0, 3), (8, 12), (12, 13)]), 3 + 8);
    }
}
