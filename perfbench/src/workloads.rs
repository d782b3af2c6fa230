//! The two workloads, their inputs (a pure function of the seed) and
//! one repetition of each, untraced or traced.
//!
//! Everything is built from public constructors only: the single
//! replica through `Simulation::poisson`, fleets through
//! `ClusterSimulation::new` + `ReplicaConfig`, routers and policies
//! through `RouterKind::build` / `PolicyKind::build`. The load sizing
//! lives here rather than in the library's experiment suites, so a
//! retune of those suites does not move this benchmark.

use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

use duplex::model::{ModelConfig, StageShape};
use duplex::sched::json;
use duplex::sched::trace::{format_trace, parse_trace};
use duplex::sched::{
    Arrivals, ClusterReport, ClusterSimulation, ClusterSnapshot, ConversationSpec, LatencyDigest,
    LatencySummary, PolicyKind, ReplicaConfig, Router, RouterKind, Scenario, SchedulingPolicy,
    SimReport, Simulation, SimulationConfig, StageExecutor, StageStats, TraceRequest, Workload,
};
use duplex::system::{SystemConfig, SystemExecutor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::{lock, now_ns, union_ns, SpanLog, TimedExecutor, TimedPolicy, TimedRouter};

/// Executor seed: fixed, so a seed argument changes only the traffic.
pub const EXECUTOR_SEED: u64 = 7;

// ------------------------------------------------------------ workloads

/// `replica_churn`: one Mixtral replica on Duplex+PE+ET 4x1, batch 256,
/// open-loop Poisson arrivals of short requests at a saturating rate,
/// so nearly every stage admits prefills and takes the full path.
const CHURN_BATCH: usize = 256;
const CHURN_REQUESTS: usize = 300_000;
/// Offered rate as a multiple of the decode-only capacity estimate.
const CHURN_LOAD: f64 = 1.25;

/// `fleet_resume`: a small tiered chat fleet replayed from a recorded
/// trace, paused at fixed shares of its arrival span and resumed from
/// JSON.
const RESUME_REPLICAS: usize = 4;
const RESUME_CONVERSATIONS: usize = 240;
const RESUME_LOAD: f64 = 0.15;
const RESUME_PAUSES: [f64; 3] = [0.25, 0.5, 0.75];
/// Session affinity carries router state across a pause.
const RESUME_ROUTER: RouterKind = RouterKind::SessionAffinity;

/// Mean prompt, reply and follow-up turn lengths of a chat workload.
#[derive(Clone, Copy)]
struct Lengths {
    lin: u64,
    lout: u64,
    turn: u64,
}

/// Shorter conversations keep `fleet_resume`'s snapshots near 100 kB.
const RESUME_LENGTHS: Lengths = Lengths {
    lin: 256,
    lout: 64,
    turn: 32,
};
/// Rounds per conversation (every round spawns a follow-up until the cap).
const ROUNDS: u32 = 4;
const BATCH_GROK: usize = 16;

pub const NAMES: [&str; 2] = ["replica_churn", "fleet_resume"];
/// The workload whose fleet times, on `replica_churn`'s traced run, the
/// layers the single replica does not reach.
pub const REFERENCE: &str = "fleet_resume";

/// A workload's inputs, generated from the seed.
pub enum Bench {
    Churn {
        workload: Workload,
        qps: f64,
    },
    Resume {
        trace: Vec<TraceRequest>,
        scenario: Scenario,
    },
}

fn mixtral_system() -> (ModelConfig, SystemConfig) {
    (
        ModelConfig::mixtral_8x7b(),
        SystemConfig::duplex_pe_et(4, 1),
    )
}

fn grok_system() -> (ModelConfig, SystemConfig) {
    let model = ModelConfig::grok1();
    let (d, n) = SystemConfig::default_cluster(&model);
    (model, SystemConfig::duplex_pe_et(d, n))
}

/// Price one decode-only stage: the time unit for rates and deadlines.
fn probe_stage_s(model: &ModelConfig, system: &SystemConfig, batch: usize, ctx: u64) -> f64 {
    let mut ex = SystemExecutor::new(system.clone(), model.clone(), EXECUTOR_SEED);
    ex.stage_cost(&StageShape::decode_only(&vec![ctx; batch]))
        .seconds
}

/// Multi-turn, SLO-tiered chat: Gaussian prompts and replies, four
/// rounds per conversation, interactive/standard/batch tiers.
fn chat_scenario(
    name: &str,
    seed: u64,
    arrivals: Arrivals,
    conversations: usize,
    len: Lengths,
) -> Scenario {
    let stage_s = grok_stage_s(len);
    Scenario::new(
        name,
        Workload::gaussian(len.lin, len.lout)
            .with_seed(seed)
            .with_cv(0.5),
        arrivals,
        conversations,
    )
    .with_conversation(ConversationSpec::chat(
        1.0,
        ROUNDS,
        0.5 * len.lout as f64 * stage_s,
        len.turn,
    ))
    .with_tiers(Scenario::default_tiers(stage_s))
}

/// A Grok replica's decode stage at a chat workload's mean context.
fn grok_stage_s(len: Lengths) -> f64 {
    let (model, system) = grok_system();
    probe_stage_s(&model, &system, BATCH_GROK, len.lin + len.lout / 2)
}

/// First-round arrival rate for `replicas` Grok replicas at `load`.
fn chat_qps(replicas: usize, load: f64, len: Lengths) -> f64 {
    load * replicas as f64 * BATCH_GROK as f64 / (len.lout as f64 * grok_stage_s(len))
}

impl Bench {
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "replica_churn" => {
                let (model, system) = mixtral_system();
                let workload = Workload::gaussian(128, 32).with_seed(seed);
                let stage_s = probe_stage_s(&model, &system, CHURN_BATCH, 128 + 16);
                let qps = CHURN_LOAD * CHURN_BATCH as f64 / (33.0 * stage_s);
                Bench::Churn { workload, qps }
            }
            "fleet_resume" => {
                // The arrival stream is recorded as a trace by the
                // benchmark itself, drawn from the seed: one first round
                // per slot of 1/qps at a uniform offset inside it, with
                // uniform lengths. Jittered slots rather than Poisson
                // gaps keep the offered load, and so the snapshot sizes,
                // the same for every seed of this small fleet.
                let len = RESUME_LENGTHS;
                let qps = chat_qps(RESUME_REPLICAS, RESUME_LOAD, len);
                let mut rng = StdRng::seed_from_u64(seed);
                let trace = (0..RESUME_CONVERSATIONS)
                    .map(|i| TraceRequest {
                        arrival_s: (i as f64 + rng.random::<f64>()) / qps,
                        input_len: len.lin / 2 + rng.random_below(len.lin),
                        output_len: len.lout / 2 + rng.random_below(len.lout),
                    })
                    .collect::<Vec<_>>();
                let scenario = chat_scenario(
                    "fleet_resume",
                    seed,
                    Arrivals::trace(trace.clone()),
                    RESUME_CONVERSATIONS,
                    len,
                );
                Bench::Resume { trace, scenario }
            }
            _ => return None,
        })
    }

    /// Model and system every executor of this workload prices on.
    pub fn system(&self) -> (ModelConfig, SystemConfig) {
        match self {
            Bench::Churn { .. } => mixtral_system(),
            _ => grok_system(),
        }
    }

    pub fn is_resume(&self) -> bool {
        matches!(self, Bench::Resume { .. })
    }

    /// Run the workload once. `E` selects untraced (`SystemExecutor`)
    /// or traced (`TimedExecutor<SystemExecutor>`, with timed routers
    /// and policies) execution; the simulated outputs must not differ.
    pub fn rep<E: Exec>(&self, checks: &mut Checks) -> Rep {
        let mut rep = Rep::default();
        match self {
            Bench::Churn { workload, qps } => self.churn::<E>(workload, *qps, &mut rep, checks),
            Bench::Resume { trace, scenario } => {
                self.resume::<E>(trace, scenario, &mut rep, checks)
            }
        }
        rep
    }

    /// Set-up of the single replica: executor build and simulation.
    fn churn_setup<E: Exec>(&self, workload: &Workload, qps: f64) -> (E, Simulation) {
        let (model, system) = self.system();
        let ex = E::wrap(SystemExecutor::new(system, model.clone(), EXECUTOR_SEED));
        let config = SimulationConfig {
            max_batch: CHURN_BATCH,
            kv_capacity_bytes: ex.system().kv_capacity_bytes(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            max_stages: usize::MAX,
            record_stages: false,
        };
        (
            ex,
            Simulation::poisson(config, workload.clone(), qps, CHURN_REQUESTS),
        )
    }

    /// Build what the first run of a repetition needs, and drop it:
    /// the set-up a fresh process pays before simulating anything.
    pub fn setup(&self) {
        match self {
            Bench::Churn { workload, qps } => {
                std::hint::black_box(self.churn_setup::<SystemExecutor>(workload, *qps));
            }
            Bench::Resume { scenario, .. } => {
                std::hint::black_box(Fleet::<SystemExecutor>::build(
                    self,
                    scenario,
                    RESUME_ROUTER,
                ));
            }
        }
    }

    fn churn<E: Exec>(&self, workload: &Workload, qps: f64, rep: &mut Rep, checks: &mut Checks) {
        let (mut ex, sim) = self.churn_setup::<E>(workload, qps);
        let t0 = now_ns();
        let report = sim.run(&mut ex);
        let t1 = now_ns();
        rep.run_s = secs(t1 - t0);
        rep.sim_stages = report.stage_stats.stages;
        rep.layers.add_executors(std::slice::from_ref(&ex));
        if let Some(timed) = ex.timed() {
            let busy = timed.full.ns + timed.delta.ns;
            rep.layers.self_ns += (t1 - t0).saturating_sub(busy);
        }
        checks.check(report.completed.len() == CHURN_REQUESTS, || {
            format!(
                "{} of {CHURN_REQUESTS} requests completed",
                report.completed.len()
            )
        });
        rep.sim = SimOut::of_replica(&report);
    }

    fn resume<E: Exec>(
        &self,
        trace: &[TraceRequest],
        scenario: &Scenario,
        rep: &mut Rep,
        checks: &mut Checks,
    ) {
        let kind = RESUME_ROUTER;
        let t0 = now_ns();
        let text = format_trace(trace);
        let t1 = now_ns();
        let parsed = parse_trace(&text);
        let t2 = now_ns();
        rep.run_s += secs(t2 - t0);
        rep.resume.trace_format_ms.push(ms(t1 - t0));
        rep.resume.trace_parse_ms.push(ms(t2 - t1));
        checks.check(parsed.as_deref() == Ok(trace), || {
            "parse_trace(format_trace(t)) != t".into()
        });

        // The uninterrupted run every resume must reproduce.
        let mut fleet = Fleet::<E>::build(self, scenario, kind);
        let t0 = now_ns();
        let whole = fleet.sim.run(
            fleet.router.as_mut(),
            &mut fleet.policies,
            &mut fleet.executors,
        );
        let t1 = now_ns();
        rep.run_s += secs(t1 - t0);
        rep.layers.add_cluster_run(&fleet, t0, t1);
        rep.sim_stages += whole.stages();
        check_fleet_complete(checks, scenario, &whole);

        // Pause points sit at shares of the arrival span rather than of
        // the whole run, whose tail varies with the last conversations'
        // lengths, so each snapshot holds a similar amount of progress.
        let span = trace.last().map_or(0.0, |t| t.arrival_s);
        for share in RESUME_PAUSES {
            let mut first = Fleet::<E>::build(self, scenario, kind);
            let t0 = now_ns();
            let paused = first.sim.run_until(
                first.router.as_mut(),
                &mut first.policies,
                &mut first.executors,
                share * span,
            );
            let t1 = now_ns();
            rep.layers.add_cluster_run(&first, t0, t1);
            let Some(snapshot) = paused.snapshot() else {
                checks.check(false, || {
                    format!("the run did not pause at {share} of its arrival span")
                });
                continue;
            };
            let t2 = now_ns();
            let text = snapshot.to_json();
            let t3 = now_ns();
            let mut second = Fleet::<E>::build(self, scenario, kind);
            let t4 = now_ns();
            let decoded = ClusterSnapshot::from_json(&text);
            let t5 = now_ns();
            let resumed = decoded.as_ref().map_err(Clone::clone).and_then(|s| {
                second.sim.resume(
                    s,
                    second.router.as_mut(),
                    &mut second.policies,
                    &mut second.executors,
                )
            });
            let t6 = now_ns();
            rep.run_s += secs((t1 - t0) + (t3 - t2) + (t6 - t4));
            rep.layers.add_cluster_run(&second, t5, t6);
            rep.resume.snapshot_bytes.push(text.len() as f64);
            rep.resume.encode_ms.push(ms(t3 - t2));
            rep.resume.decode_ms.push(ms(t5 - t4));
            rep.resume.resume_s.push(secs(t6 - t5));
            if E::TRACED {
                let t0 = now_ns();
                let doc = json::parse(&text);
                let t1 = now_ns();
                checks.check(doc.is_ok(), || "json::parse rejected a snapshot".into());
                rep.resume
                    .parse_ns_per_byte
                    .push((t1 - t0) as f64 / text.len() as f64);
            }
            checks.check(decoded.as_ref() == Ok(&snapshot), || {
                format!("from_json(to_json(s)) != s at {share} of the run")
            });
            match resumed {
                Ok(report) => {
                    rep.sim_stages += report.stages();
                    checks.check(report == whole, || {
                        format!("the run resumed at {share} differs from the uninterrupted run")
                    });
                }
                Err(e) => checks.check(false, || format!("resume at {share} failed: {e}")),
            }
        }
        rep.sim = SimOut::of_fleet(&whole);
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn check_fleet_complete(checks: &mut Checks, scenario: &Scenario, report: &ClusterReport) {
    let expected = scenario.requests * ROUNDS as usize;
    checks.check(report.completed() == expected, || {
        format!(
            "{}: {} of {expected} requests and follow-ups completed",
            report.router,
            report.completed()
        )
    });
}

// ------------------------------------------------------------ executors

/// The executor a repetition runs on: the plain `SystemExecutor`, or
/// the same wrapped in the timing adapter.
pub trait Exec: StageExecutor + Send + Sized {
    const TRACED: bool;
    fn wrap(ex: SystemExecutor) -> Self;
    fn system(&self) -> &SystemExecutor;
    fn timed(&self) -> Option<&TimedExecutor<SystemExecutor>>;
}

impl Exec for SystemExecutor {
    const TRACED: bool = false;
    fn wrap(ex: SystemExecutor) -> Self {
        ex
    }
    fn system(&self) -> &SystemExecutor {
        self
    }
    fn timed(&self) -> Option<&TimedExecutor<SystemExecutor>> {
        None
    }
}

impl Exec for TimedExecutor<SystemExecutor> {
    const TRACED: bool = true;
    fn wrap(ex: SystemExecutor) -> Self {
        TimedExecutor::new(ex)
    }
    fn system(&self) -> &SystemExecutor {
        self.inner()
    }
    fn timed(&self) -> Option<&TimedExecutor<SystemExecutor>> {
        Some(self)
    }
}

/// One fleet ready to run, with the span logs of its timed router and
/// policies when traced.
struct Fleet<E> {
    sim: ClusterSimulation,
    router: Box<dyn Router>,
    policies: Vec<Box<dyn SchedulingPolicy>>,
    executors: Vec<E>,
    router_log: Option<Arc<Mutex<SpanLog>>>,
    policy_logs: Vec<Arc<Mutex<SpanLog>>>,
}

impl<E: Exec> Fleet<E> {
    /// Set-up as a drill pays it: executor builds, per-replica capacity
    /// probes for the router weights, policies, router and simulation.
    fn build(bench: &Bench, scenario: &Scenario, kind: RouterKind) -> Self {
        let (model, system) = bench.system();
        let replicas = RESUME_REPLICAS;
        let probe_ctx = scenario.workload.mean_input + scenario.workload.mean_output / 2;
        let mut executors = Vec::with_capacity(replicas);
        let mut configs = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let ex = SystemExecutor::new(system.clone(), model.clone(), EXECUTOR_SEED);
            let stage_s = probe_stage_s(&model, &system, BATCH_GROK, probe_ctx);
            configs.push(
                ReplicaConfig::new(SimulationConfig {
                    max_batch: BATCH_GROK,
                    kv_capacity_bytes: ex.kv_capacity_bytes(),
                    kv_bytes_per_token: model.kv_bytes_per_token(),
                    max_stages: usize::MAX,
                    record_stages: false,
                })
                .with_weight(1.0 / stage_s),
            );
            executors.push(E::wrap(ex));
        }
        let mut router = kind.build();
        let mut router_log = None;
        let mut policies = Vec::with_capacity(replicas);
        let mut policy_logs = Vec::new();
        for _ in 0..replicas {
            let policy = PolicyKind::PriorityTiers.build();
            if E::TRACED {
                let (policy, log) = TimedPolicy::wrap(policy);
                policies.push(policy);
                policy_logs.push(log);
            } else {
                policies.push(policy);
            }
        }
        if E::TRACED {
            let (timed, log) = TimedRouter::wrap(router);
            router = timed;
            router_log = Some(log);
        }
        let sim = ClusterSimulation::new(configs, scenario.clone());
        Self {
            sim,
            router,
            policies,
            executors,
            router_log,
            policy_logs,
        }
    }
}

// ------------------------------------------------------------ outcomes

/// Correctness checks; each counts as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Simulated outputs of one repetition (identical for every
/// repetition with the same seed).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimOut {
    pub tokens_per_s: f64,
    pub tbt_p99_ms: f64,
    pub t2ft_p99_ms: f64,
    pub stages: u64,
    pub mixed_ratio: f64,
    pub mean_batch: f64,
    pub kv_reuse: f64,
    pub completed: u64,
    /// Hash of the `Debug` rendering of every simulated report: equal
    /// fingerprints mean byte-identical reports.
    pub fingerprint: u64,
}

impl SimOut {
    fn of_replica(report: &SimReport) -> Self {
        Self::from_parts(
            report.generation_throughput(),
            &report.tbt_digest,
            report.t2ft(),
            &report.stage_stats,
            report.kv_reuse.reuse_fraction(),
            report.completed.len(),
            fingerprint(report),
        )
    }

    fn of_fleet(report: &ClusterReport) -> Self {
        let t2ft: Vec<f64> = report
            .replicas
            .iter()
            .flat_map(|s| s.completed.iter().map(|c| c.t2ft()))
            .collect();
        Self::from_parts(
            report.generated_tokens() as f64 / report.total_time_s,
            &report.tbt_digest(),
            LatencySummary::of(&t2ft),
            &report.stage_stats(),
            report.kv_reuse().reuse_fraction(),
            report.completed(),
            fingerprint(report),
        )
    }

    fn from_parts(
        tokens_per_s: f64,
        tbt: &LatencyDigest,
        t2ft: LatencySummary,
        stages: &StageStats,
        kv_reuse: f64,
        completed: usize,
        fingerprint: u64,
    ) -> Self {
        let n = stages.stages.max(1) as f64;
        Self {
            tokens_per_s,
            tbt_p99_ms: tbt.summary().p99 * 1e3,
            t2ft_p99_ms: t2ft.p99 * 1e3,
            stages: stages.stages,
            mixed_ratio: stages.mixed as f64 / n,
            mean_batch: stages.batch_sum as f64 / n,
            kv_reuse,
            completed: completed as u64,
            fingerprint,
        }
    }
}

/// Hash of a value's `Debug` rendering, streamed (reports of a
/// 300k-request run render to tens of megabytes).
fn fingerprint(value: &impl fmt::Debug) -> u64 {
    struct HashWriter(DefaultHasher);
    impl fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{value:?}").expect("hashing never fails");
    w.0.finish()
}

/// Direct timings of the snapshot and trace I/O of `fleet_resume`.
#[derive(Debug, Default)]
pub struct ResumeTimes {
    pub snapshot_bytes: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub resume_s: Vec<f64>,
    pub parse_ns_per_byte: Vec<f64>,
    pub trace_format_ms: Vec<f64>,
    pub trace_parse_ms: Vec<f64>,
}

/// Layer counters accumulated over the runs of one traced repetition.
#[derive(Debug, Default)]
pub struct Layers {
    pub full_calls: u64,
    pub full_ns: u64,
    pub delta_calls: u64,
    pub delta_ns: u64,
    pub pure_advance: u64,
    /// Scheduler (single replica) or cluster (fleet) self time: wall
    /// time minus the union of executor, router and policy spans.
    pub self_ns: u64,
    pub router_calls: u64,
    pub router_ns: u64,
    pub policy_calls: u64,
    pub policy_ns: u64,
    pub mixed_samples: Vec<(StageShape, f64)>,
    pub decode_samples: Vec<(StageShape, f64)>,
}

impl Layers {
    fn add_executors<E: Exec>(&mut self, executors: &[E]) {
        for t in executors.iter().filter_map(Exec::timed) {
            self.full_calls += t.full.calls;
            self.full_ns += t.full.ns;
            self.delta_calls += t.delta.calls;
            self.delta_ns += t.delta.ns;
            self.pure_advance += t.pure_advance;
            self.mixed_samples.extend(t.mixed_samples.iter().cloned());
            self.decode_samples.extend(t.decode_samples.iter().cloned());
        }
    }

    fn add_cluster_run<E: Exec>(&mut self, fleet: &Fleet<E>, start: u64, end: u64) {
        if !E::TRACED {
            return;
        }
        // Each fleet runs once, so its logs hold exactly this run.
        let mut spans: Vec<(u64, u64)> = fleet
            .executors
            .iter()
            .filter_map(Exec::timed)
            .flat_map(|t| t.spans())
            .collect();
        for log in fleet.router_log.iter().chain(&fleet.policy_logs) {
            spans.extend_from_slice(&lock(log).spans);
        }
        self.self_ns += (end - start).saturating_sub(union_ns(spans));
        if let Some(log) = &fleet.router_log {
            let log = lock(log);
            self.router_calls += log.calls;
            self.router_ns += log.ns;
        }
        for log in &fleet.policy_logs {
            let log = lock(log);
            self.policy_calls += log.calls;
            self.policy_ns += log.ns;
        }
        self.add_executors(&fleet.executors);
    }
}

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of the timed work (set-up excluded).
    pub run_s: f64,
    /// Simulated stages, summed over every replica and run, in the
    /// timed work.
    pub sim_stages: u64,
    pub resume: ResumeTimes,
    pub sim: SimOut,
    pub layers: Layers,
}
