//! Benchmark of the Duplex simulator, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `replica_churn`, `fleet_resume` (see
//! `workloads.rs` and `BENCHMARK.json` for why each exists). The
//! untraced run (`--trace 0`) repeats the workload for `--seconds` and
//! prints the end-to-end metrics; the traced run (`--trace 1`)
//! alternates untraced and traced repetitions, times the layers the
//! single replica does not reach on the reference fleet (`fleet_resume`),
//! then replays captured stages through the layer microcases, and
//! prints the per-layer metrics. Every workload prints every metric of
//! its kind. Both check correctness and print, as the last line of
//! standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `perfbench --workload <name> --seed <n> --once` instead times one
//! cold set-up, from the seed to a simulation ready to run (HBM
//! calibration, capacity probes, executor, fleet, router and policy
//! construction), prints the seconds, then runs one checked untraced
//! repetition and exits. `run.py` runs it in several fresh processes and
//! adds `setup_s` (median set-up) and `peak_rss_mb` (median peak
//! resident memory of those processes) to the result.

mod micro;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use duplex::system::SystemExecutor;

use spans::TimedExecutor;
use stats::median;
use workloads::{Bench, Checks, Rep, EXECUTOR_SEED, NAMES, REFERENCE};

/// Repetitions per run, whatever the time budget.
const MIN_REPS: usize = 3;
/// Share of a traced run spent on workload repetitions.
const TRACED_SHARE: f64 = 0.5;
/// Share of a traced run after which the reference fleet's repetitions
/// stop; the rest goes to the microcases.
const REFERENCE_SHARE: f64 = 0.65;
/// Relative tolerance of the fast pricing paths against
/// `stage_cost_reference`.
const REFERENCE_TOLERANCE: f64 = 1e-9;

type Traced = TimedExecutor<SystemExecutor>;

struct Args {
    workload: String,
    seed: u64,
    /// `None` for `--once`.
    run: Option<(u64, bool)>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut once = false;
    while let Some(flag) = raw.next() {
        if flag == "--once" {
            once = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let run = if once {
        None
    } else {
        Some((
            seconds
                .filter(|&s| s > 0)
                .ok_or("--seconds must be positive")?,
            trace.ok_or("--trace is required")?,
        ))
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run,
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed <n> (--seconds <s> --trace <0|1> | --once)",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let Some((seconds, trace)) = args.run else {
        bench.setup();
        println!("{:?}", t0.elapsed().as_secs_f64());
        let mut checks = Checks::default();
        bench.rep::<SystemExecutor>(&mut checks);
        return if checks.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let budget = Duration::from_secs(seconds);
    let mut checks = Checks::default();
    let metrics = if trace {
        traced(&bench, args.seed, budget, &mut checks)
    } else {
        untraced(&bench, budget, &mut checks)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every repetition with one seed must simulate exactly the same thing.
fn check_same(checks: &mut Checks, first: &Rep, rep: &Rep, what: &str) {
    checks.check(rep.sim == first.sim, || {
        format!("{what} simulated output differs from the first repetition")
    });
}

/// Re-price sampled stages with `stage_cost_reference` on a fresh
/// executor and compare with what the run's executors charged.
fn check_reference(bench: &Bench, traced: &Rep, checks: &mut Checks) {
    let (model, system) = bench.system();
    let mut ex = SystemExecutor::new(system, model, EXECUTOR_SEED);
    let layers = &traced.layers;
    for (shape, seconds) in layers.mixed_samples.iter().chain(&layers.decode_samples) {
        let reference = ex.stage_cost_reference(shape).seconds;
        let rel = (seconds - reference).abs() / reference.abs().max(f64::MIN_POSITIVE);
        checks.check(rel <= REFERENCE_TOLERANCE, || {
            format!("stage priced {seconds} s, reference {reference} s (relative {rel:e})")
        });
    }
    checks.check(!layers.mixed_samples.is_empty(), || {
        "no stage was sampled".into()
    });
}

fn untraced(bench: &Bench, budget: Duration, checks: &mut Checks) -> Metrics {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let rep = bench.rep::<SystemExecutor>(checks);
        log_rep("untraced", &rep);
        if let Some(first) = reps.first() {
            check_same(checks, first, &rep, "an untraced");
        }
        reps.push(rep);
    }
    // One traced repetition after the clock stops: its reports must equal
    // the untraced ones, and its sampled stages feed the reference check.
    let traced = bench.rep::<Traced>(checks);
    check_same(checks, &reps[0], &traced, "the traced");
    check_reference(bench, &traced, checks);

    let sim = &reps[0].sim;
    vec![
        ("sim_stages_per_s", stages_per_s(&reps), "1/s"),
        ("sim_tokens_per_s", sim.tokens_per_s, "1/s"),
        ("sim_tbt_p99_ms", sim.tbt_p99_ms, "ms"),
        ("sim_t2ft_p99_ms", sim.t2ft_p99_ms, "ms"),
    ]
}

/// Median over `reps` of simulated stages per host second: on a shared
/// machine, short bursts of host speed move a mean but not a median.
fn stages_per_s(reps: &[Rep]) -> f64 {
    per_rep(reps, |r| r.sim_stages as f64 / r.run_s)
}

fn log_rep(kind: &str, rep: &Rep) {
    eprintln!(
        "{kind}: {} stages in {:.3} s ({:.0} stages/s)",
        rep.sim_stages,
        rep.run_s,
        rep.sim_stages as f64 / rep.run_s,
    );
}

/// Median over `reps` of a per-repetition value.
fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Median over every sample of every repetition in `reps`.
fn all(reps: &[Rep], f: impl Fn(&Rep) -> &Vec<f64>) -> f64 {
    median(
        &reps
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<_>>(),
    )
}

fn per_call(ns: u64, calls: u64) -> f64 {
    ns as f64 / calls.max(1) as f64
}

fn traced(bench: &Bench, seed: u64, budget: Duration, checks: &mut Checks) -> Metrics {
    let start = Instant::now();
    let reps_budget = budget.mul_f64(TRACED_SHARE);
    let (mut plain, mut timed): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    while timed.len() < 2 || start.elapsed() < reps_budget {
        let rep = bench.rep::<SystemExecutor>(checks);
        log_rep("untraced", &rep);
        if let Some(first) = plain.first() {
            check_same(checks, first, &rep, "an untraced");
        }
        plain.push(rep);
        let rep = bench.rep::<Traced>(checks);
        log_rep("traced", &rep);
        check_same(checks, &plain[0], &rep, "a traced");
        timed.push(rep);
    }
    check_reference(bench, &timed[0], checks);

    // Layers the single replica's runs do not reach (router, policies,
    // snapshot, JSON and trace I/O) are timed on the reference fleet:
    // `fleet_resume` drawn from the same seed.
    let reference = (!bench.is_resume()).then(|| {
        let reference = Bench::new(REFERENCE, seed).expect("the reference is a workload");
        let mut reps: Vec<Rep> = Vec::new();
        while reps.len() < 2 || start.elapsed() < budget.mul_f64(REFERENCE_SHARE) {
            let rep = reference.rep::<Traced>(checks);
            log_rep("reference", &rep);
            if let Some(first) = reps.first() {
                check_same(checks, first, &rep, "a reference");
            }
            reps.push(rep);
        }
        reps
    });
    let fleet: &[Rep] = reference.as_deref().unwrap_or(&timed);

    let sim = &timed[0].sim;
    let plain_sps = stages_per_s(&plain);
    let timed_sps = stages_per_s(&timed);
    let mut m: Metrics = vec![
        (
            "system.full.calls",
            per_rep(&timed, |r| r.layers.full_calls as f64),
            "count",
        ),
        (
            "system.full.ns",
            per_rep(&timed, |r| per_call(r.layers.full_ns, r.layers.full_calls)),
            "ns",
        ),
        (
            "system.delta.calls",
            per_rep(&timed, |r| r.layers.delta_calls as f64),
            "count",
        ),
        (
            "system.delta.ns",
            per_rep(&timed, |r| {
                per_call(r.layers.delta_ns, r.layers.delta_calls)
            }),
            "ns",
        ),
        (
            "system.pure_advance_ratio",
            per_rep(&timed, |r| {
                r.layers.pure_advance as f64
                    / (r.layers.full_calls + r.layers.delta_calls).max(1) as f64
            }),
            "ratio",
        ),
        (
            "system.busy_s",
            per_rep(&timed, |r| {
                (r.layers.full_ns + r.layers.delta_ns) as f64 * 1e-9
            }),
            "s",
        ),
        (
            "sched.self_s",
            per_rep(&timed, |r| r.layers.self_ns as f64 * 1e-9),
            "s",
        ),
        (
            "sched.router.place.calls",
            per_rep(fleet, |r| r.layers.router_calls as f64),
            "count",
        ),
        (
            "sched.router.place.ns",
            per_rep(fleet, |r| {
                per_call(r.layers.router_ns, r.layers.router_calls)
            }),
            "ns",
        ),
        (
            "sched.policy.calls",
            per_rep(fleet, |r| r.layers.policy_calls as f64),
            "count",
        ),
        (
            "sched.policy.ns",
            per_rep(fleet, |r| {
                per_call(r.layers.policy_ns, r.layers.policy_calls)
            }),
            "ns",
        ),
        (
            "sched.snapshot.bytes",
            all(fleet, |r| &r.resume.snapshot_bytes),
            "bytes",
        ),
        (
            "sched.snapshot.encode_ms",
            all(fleet, |r| &r.resume.encode_ms),
            "ms",
        ),
        (
            "sched.snapshot.decode_ms",
            all(fleet, |r| &r.resume.decode_ms),
            "ms",
        ),
        (
            "sched.json.parse_ns_per_byte",
            all(fleet, |r| &r.resume.parse_ns_per_byte),
            "ns/byte",
        ),
        (
            "sched.trace.format_ms",
            all(fleet, |r| &r.resume.trace_format_ms),
            "ms",
        ),
        (
            "sched.trace.parse_ms",
            all(fleet, |r| &r.resume.trace_parse_ms),
            "ms",
        ),
        (
            "sched.cluster.resume_s",
            all(fleet, |r| &r.resume.resume_s),
            "s",
        ),
        ("sched.stages", sim.stages as f64, "count"),
        ("sched.mixed_stage_ratio", sim.mixed_ratio, "ratio"),
        ("sched.mean_batch", sim.mean_batch, "count"),
        ("sched.kv_reuse_fraction", sim.kv_reuse, "ratio"),
        ("sched.completed", sim.completed as f64, "count"),
        ("trace.overhead_ratio", 1.0 - timed_sps / plain_sps, "ratio"),
    ];

    let (model, system) = bench.system();
    let shapes: Vec<_> = timed[0]
        .layers
        .mixed_samples
        .iter()
        .map(|(shape, _)| shape.clone())
        .collect();
    let left = budget.saturating_sub(start.elapsed());
    let micro = micro::run(&model, &system, &shapes, left);
    m.extend([
        ("model.enumerate_ns", micro.enumerate.median_ns, "ns"),
        ("model.enumerate_ns_iqr", micro.enumerate.iqr_ns, "ns"),
        ("compute.kernel_cold_ns", micro.kernel_cold.median_ns, "ns"),
        ("compute.kernel_cold_ns_iqr", micro.kernel_cold.iqr_ns, "ns"),
        ("compute.kernel_memo_ns", micro.kernel_memo.median_ns, "ns"),
        ("compute.kernel_memo_ns_iqr", micro.kernel_memo.iqr_ns, "ns"),
        ("hbm.stream_ns", micro.stream.median_ns, "ns"),
        ("hbm.stream_ns_iqr", micro.stream.iqr_ns, "ns"),
        ("hbm.calibrate_ms", micro.calibrate.median_ns * 1e-6, "ms"),
        (
            "setup.executor_new_ms",
            micro.executor_new.median_ns * 1e-6,
            "ms",
        ),
    ]);
    m
}
