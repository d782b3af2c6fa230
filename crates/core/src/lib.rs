//! # duplex — a simulator for the Duplex LLM-inference device
//!
//! End-to-end reproduction of *"Duplex: A Device for Large Language
//! Models with Mixture of Experts, Grouped Query Attention, and
//! Continuous Batching"* (Yun et al., MICRO 2024, arXiv:2409.01141).
//!
//! Duplex pairs an H100-class **xPU** with **Logic-PIM** — processing
//! units on the HBM logic die fed 4x internal bandwidth through added
//! TSVs — inside one device, and picks the unit whose machine balance
//! matches each LLM layer's arithmetic intensity. Expert and attention
//! co-processing run both units at once inside MoE and attention
//! layers.
//!
//! This crate is the front door: build a [`RunConfig`], call [`run`],
//! get a [`RunResult`] with throughput, latency percentiles and energy.
//! Runs drive the scheduler's incremental stage contract end to end:
//! each stage reaches the executor as a `StageDelta` (advance +
//! admissions + retirements), so pure-decode stages — the bulk of
//! every sweep — are priced in O(1) from carried batch state, and
//! mixed stages from that state plus only their admissions (see
//! `duplex_system::incremental`). The grouped full path remains for
//! sampled routing and pure-prefill stages, and `stage_cost_reference`
//! is the pinned oracle.
//! The pieces are exposed through re-exports if you need to go deeper
//! (HBM timing in [`hbm`], engines in [`compute`], model shapes in
//! [`model`], the scheduler in [`sched`], systems in [`system`]). The
//! [`experiments`] module holds the parameter sweeps that regenerate
//! every figure and table of the paper; the `duplex-bench` crate
//! prints them.
//!
//! # Quickstart
//!
//! Compare a 4-GPU system with a 4-Duplex system on Mixtral:
//!
//! ```
//! use duplex::{run, RunConfig};
//! use duplex::model::ModelConfig;
//! use duplex::system::SystemConfig;
//! use duplex::sched::Workload;
//!
//! let base = RunConfig {
//!     model: ModelConfig::mixtral_8x7b(),
//!     system: SystemConfig::gpu(4, 1),
//!     workload: Workload::fixed(256, 16),
//!     max_batch: 8,
//!     requests: 8,
//!     qps: None,
//!     seed: 7,
//!     max_stages: usize::MAX,
//!     kv_capacity_override: None,
//! };
//! let gpu = run(base.clone());
//! let duplex = run(RunConfig { system: SystemConfig::duplex_pe_et(4, 1), ..base });
//! assert!(duplex.throughput_tokens_per_s > gpu.throughput_tokens_per_s);
//! assert!(duplex.energy_per_token_j < gpu.energy_per_token_j);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;

/// Re-export of the HBM memory model.
pub use duplex_hbm as hbm;

/// Re-export of the processing-unit models.
pub use duplex_compute as compute;

/// Re-export of the LLM architecture descriptions.
pub use duplex_model as model;

/// Re-export of the serving scheduler.
pub use duplex_sched as sched;

/// Re-export of the system/cluster models.
pub use duplex_system as system;

use duplex_model::ModelConfig;
use duplex_sched::{LatencySummary, SimReport, Simulation, SimulationConfig, Workload};
use duplex_system::exec::StageCost;
use duplex_system::{SystemConfig, SystemExecutor};

/// One simulation: a model, a system, a workload and serving limits.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The LLM to serve.
    pub model: ModelConfig,
    /// The serving system.
    pub system: SystemConfig,
    /// Request-shape distribution.
    pub workload: Workload,
    /// Maximum requests per stage.
    pub max_batch: usize,
    /// Requests to simulate.
    pub requests: usize,
    /// `Some(qps)` for open-loop Poisson arrivals, `None` for the
    /// paper's default closed loop.
    pub qps: Option<f64>,
    /// Expert-routing seed.
    pub seed: u64,
    /// Stage cap for truncated steady-state measurements.
    pub max_stages: usize,
    /// Override the system's KV-cache budget (e.g. to model the
    /// "no capacity limit" series of Fig. 5(c)); `None` uses the
    /// system's capacity plan.
    pub kv_capacity_override: Option<u64>,
}

impl RunConfig {
    /// Closed-loop config with explicit batch and request counts.
    pub fn closed_loop(
        model: ModelConfig,
        system: SystemConfig,
        workload: Workload,
        max_batch: usize,
        requests: usize,
    ) -> Self {
        Self {
            model,
            system,
            workload,
            max_batch,
            requests,
            qps: None,
            seed: 7,
            max_stages: usize::MAX,
            kv_capacity_override: None,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System display name.
    pub system_name: String,
    /// The raw scheduler report (stages, records).
    pub report: SimReport,
    /// Accumulated time/energy cost over all stages.
    pub cost: StageCost,
    /// Steady-state generation throughput (tokens/s), counting
    /// in-flight tokens.
    pub throughput_tokens_per_s: f64,
    /// TBT percentiles.
    pub tbt: LatencySummary,
    /// T2FT percentiles.
    pub t2ft: LatencySummary,
    /// E2E percentiles.
    pub e2e: LatencySummary,
    /// Total energy divided by generated tokens (J/token).
    pub energy_per_token_j: f64,
    /// KV-cache budget the scheduler ran with.
    pub kv_capacity_bytes: u64,
    /// Batch size actually achieved on average.
    pub mean_batch: f64,
}

/// Execute one simulation.
///
/// # Panics
///
/// Panics if the model does not fit the system (see
/// [`duplex_system::CapacityPlan`]).
pub fn run(config: RunConfig) -> RunResult {
    let mut executor =
        SystemExecutor::new(config.system.clone(), config.model.clone(), config.seed);
    run_with(&mut executor, &config)
}

/// Execute one simulation on an existing executor (resets its totals).
pub fn run_with(executor: &mut SystemExecutor, config: &RunConfig) -> RunResult {
    executor.reset_totals();
    let sim_cfg = SimulationConfig {
        max_batch: config.max_batch,
        kv_capacity_bytes: config
            .kv_capacity_override
            .unwrap_or(executor.kv_capacity_bytes()),
        kv_bytes_per_token: config.model.kv_bytes_per_token(),
        max_stages: config.max_stages,
        ..SimulationConfig::default()
    };
    let sim = match config.qps {
        Some(qps) => Simulation::poisson(sim_cfg, config.workload.clone(), qps, config.requests),
        None => Simulation::closed_loop(sim_cfg, config.workload.clone(), config.requests),
    };
    let report = sim.run(executor);
    let cost = *executor.total_cost();
    let tokens = report.generated_tokens().max(1);
    RunResult {
        system_name: executor.config().name.clone(),
        throughput_tokens_per_s: report.generation_throughput(),
        tbt: report.tbt(),
        t2ft: report.t2ft(),
        e2e: report.e2e(),
        energy_per_token_j: cost.energy.total() / tokens as f64,
        kv_capacity_bytes: executor.kv_capacity_bytes(),
        mean_batch: report.mean_batch(),
        report,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(system: SystemConfig) -> RunConfig {
        RunConfig::closed_loop(
            ModelConfig::mixtral_8x7b(),
            system,
            Workload::fixed(128, 8),
            4,
            8,
        )
    }

    #[test]
    fn run_produces_complete_result() {
        let r = run(small(SystemConfig::gpu(4, 1)));
        assert_eq!(r.report.completed.len(), 8);
        assert!(r.throughput_tokens_per_s > 0.0);
        assert!(r.energy_per_token_j > 0.0);
        assert!(r.tbt.p50 > 0.0);
        assert!(r.cost.seconds > 0.0);
        assert_eq!(r.system_name, "GPU");
    }

    #[test]
    fn run_with_reuses_executor() {
        let cfg = small(SystemConfig::duplex_pe(4, 1));
        let mut ex = SystemExecutor::new(cfg.system.clone(), cfg.model.clone(), 1);
        let a = run_with(&mut ex, &cfg);
        let b = run_with(&mut ex, &cfg);
        // Totals reset between runs: identical workloads, near-identical
        // results (expert routing advances the RNG).
        assert!((a.cost.seconds / b.cost.seconds - 1.0).abs() < 0.05);
    }

    #[test]
    fn poisson_mode_runs() {
        let mut cfg = small(SystemConfig::gpu(4, 1));
        cfg.qps = Some(100.0);
        let r = run(cfg);
        assert_eq!(r.report.completed.len(), 8);
    }
}
