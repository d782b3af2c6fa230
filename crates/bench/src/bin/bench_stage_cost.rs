//! Stage-pricing throughput benchmark: how many continuous-batching
//! stages per second can the executor price for the shape classes that
//! dominate the paper's sweeps?
//!
//! Two pricing paths are measured for each class:
//!
//! * **full** — `SystemExecutor::stage_cost(&StageShape)`: the grouped
//!   one-shot path, re-grouping the batch every stage;
//! * **delta** — `SystemExecutor::stage_cost_delta(&StageDelta)`: the
//!   incremental path, carrying batch state across stages. Decode-only
//!   classes are pure advances, priced in O(1); in `mixed_delta` every
//!   stage admits one prompt and retires the oldest request, so the
//!   membership changes every stage and the executor rebuilds its decode
//!   template and prices the one prefill on top.
//!
//! Classes:
//!
//! * `decode_only` — Mixtral-8x7B, batch 64, contexts advancing from
//!   2048 (Duplex+PE+ET, the busiest Fig. 11 system);
//! * `mixed` — the same stage with one 2048-token prefill riding along;
//! * `moe_heavy` — GLaM (64 experts, 8-device node), batch 128.
//!
//! Contexts advance every stage, as in a real decode loop, so the
//! numbers include cold kernel pricings, not just cache hits. Results
//! print as a table and land in `BENCH_stage_cost.json` in the current
//! directory so CI can track the perf trajectory across PRs.

use std::collections::VecDeque;
use std::time::Instant;

use duplex::model::ops::StageShape;
use duplex::model::ModelConfig;
use duplex::sched::StageDelta;
use duplex::system::{SystemConfig, SystemExecutor};
use duplex_bench::print_table;

struct ShapeClass {
    name: &'static str,
    model: ModelConfig,
    system: SystemConfig,
    batch: usize,
    start_ctx: u64,
    prefill: Option<u64>,
}

fn classes() -> Vec<ShapeClass> {
    vec![
        ShapeClass {
            name: "decode_only",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            batch: 64,
            start_ctx: 2048,
            prefill: None,
        },
        ShapeClass {
            name: "mixed",
            model: ModelConfig::mixtral_8x7b(),
            system: SystemConfig::duplex_pe_et(4, 1),
            batch: 63,
            start_ctx: 2048,
            prefill: Some(2048),
        },
        ShapeClass {
            name: "moe_heavy",
            model: ModelConfig::glam(),
            system: SystemConfig::duplex_pe_et(8, 1),
            batch: 128,
            start_ctx: 1024,
            prefill: None,
        },
    ]
}

fn shape_at(class: &ShapeClass, stage: u64) -> StageShape {
    let ctx = vec![class.start_ctx + stage; class.batch];
    match class.prefill {
        Some(p) => StageShape::mixed(&ctx, &[p]),
        None => StageShape::decode_only(&ctx),
    }
}

/// Price `stages` advancing stages through the full path and return
/// stages/second.
fn measure_full(class: &ShapeClass, stages: u64) -> f64 {
    let mut ex = SystemExecutor::new(class.system.clone(), class.model.clone(), 7);
    // Warm up the executor (engine construction, first pricings).
    for s in 0..(stages / 10).max(1) {
        ex.stage_cost(&shape_at(class, s));
    }
    let start = Instant::now();
    for s in 0..stages {
        ex.stage_cost(&shape_at(class, s));
    }
    stages as f64 / start.elapsed().as_secs_f64()
}

/// Price `stages` stages through the incremental delta path and return
/// stages/s. A decode-only class admits its cohort once and then only
/// advances. A mixed class admits one more request than its batch, then
/// every stage retires the oldest request and admits one `prefill`-token
/// prompt: `batch` decodes plus one prefill, with the membership
/// changing every stage.
fn measure_delta(class: &ShapeClass, stages: u64) -> f64 {
    let mut ex = SystemExecutor::new(class.system.clone(), class.model.clone(), 7);
    // Admit the cohort so it decodes from `start_ctx` onward, mirroring
    // the contexts the full-path measurement walks.
    let cohort = class.batch + usize::from(class.prefill.is_some());
    let mut delta = StageDelta::start();
    delta.admit = vec![class.start_ctx - 1; cohort];
    ex.stage_cost_delta(&delta);
    // Every request's context at stage `t` is `offset + t`; oldest first.
    let mut offsets: VecDeque<i64> =
        std::iter::repeat_n(class.start_ctx as i64 - 1, cohort).collect();
    let mut stage = 0i64;
    let mut step = |ex: &mut SystemExecutor| {
        stage += 1;
        delta.clear();
        if let Some(prompt) = class.prefill {
            let oldest = offsets.pop_front().expect("the batch never empties");
            delta.retire.push((oldest + stage) as u64);
            delta.admit.push(prompt);
            // Joins at `prompt + 1` on the next stage.
            offsets.push_back(prompt as i64 - stage);
        }
        ex.stage_cost_delta(&delta);
    };
    for _ in 0..(stages / 10).max(1) {
        step(&mut ex);
    }
    let start = Instant::now();
    for _ in 0..stages {
        step(&mut ex);
    }
    stages as f64 / start.elapsed().as_secs_f64()
}

fn json_escape_free(name: &str) -> &str {
    // Class names are static identifiers; assert rather than escape.
    assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    name
}

fn main() {
    let scale = duplex_bench::scale_from_args();
    let quick = scale == duplex::experiments::Scale::quick();
    let stages: u64 = if quick { 300 } else { 3000 };
    // The delta path is one to two orders of magnitude faster; measure
    // more stages so the timed window stays meaningful.
    let delta_stages: u64 = if quick { 30_000 } else { 1_000_000 };

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    let mut push = |name: String, class: &ShapeClass, sps: f64, n: u64| {
        rows.push(vec![
            name.clone(),
            class.model.name.clone(),
            class.system.name.clone(),
            class.batch.to_string(),
            format!("{sps:.0}"),
        ]);
        json_entries.push(format!(
            "    \"{}\": {{\"stages_per_sec\": {:.1}, \"model\": \"{}\", \"system\": \"{}\", \"batch\": {}, \"stages\": {}}}",
            json_escape_free(&name),
            sps,
            class.model.name,
            class.system.name,
            class.batch,
            n
        ));
    };
    for class in classes() {
        let sps = measure_full(&class, stages);
        push(class.name.to_string(), &class, sps, stages);
        let sps = measure_delta(&class, delta_stages);
        push(format!("{}_delta", class.name), &class, sps, delta_stages);
    }
    print_table(
        "Stage-cost throughput (full vs incremental delta path)",
        &["Class", "Model", "System", "Batch", "stages/s"],
        &rows,
    );

    let json = format!(
        "{{\n  \"schema\": \"duplex-bench/stage-cost/v2\",\n  \"mode\": \"{}\",\n  \"classes\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "paper" },
        json_entries.join(",\n")
    );
    let path = "BENCH_stage_cost.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}
