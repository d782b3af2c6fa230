//! Layer microcases for code the workloads reach only through the
//! executor: model op enumeration, compute kernel pricing (cold and
//! memoized), HBM stream timing, HBM calibration and executor builds.
//! Each case replays stage shapes captured by the traced run, repeats
//! until its time budget is spent, and reports the median per-call
//! time with the interquartile range of its samples.

use std::hint::black_box;
use std::time::{Duration, Instant};

use duplex::compute::{Engine, Kernel};
use duplex::hbm::{AccessPath, BandwidthProfile, HbmGeometry, HbmTiming};
use duplex::model::ops::enumerate_stage;
use duplex::model::{ExpertRouter, ModelConfig, StageShape};
use duplex::system::{SystemConfig, SystemExecutor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{iqr, median};
use crate::workloads::EXECUTOR_SEED;

/// Median and interquartile range of per-call nanoseconds.
pub struct Case {
    pub median_ns: f64,
    pub iqr_ns: f64,
}

/// Run `pass` (which makes `calls` calls) until `budget` is spent, at
/// least five times.
fn repeat(budget: Duration, calls: usize, mut pass: impl FnMut()) -> Case {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    Case {
        median_ns: median(&samples),
        iqr_ns: iqr(&samples),
    }
}

/// Every kernel the captured stages price: FC GEMMs over their
/// weights, and per attention group the score GEMM, softmax and value
/// GEMM over the KV cache.
fn kernels(model: &ModelConfig, router: &ExpertRouter, shapes: &[StageShape]) -> Vec<Kernel> {
    let mut rng = StdRng::seed_from_u64(0);
    let bpe = model.bytes_per_elem;
    let mut out = Vec::new();
    for shape in shapes {
        let work = enumerate_stage(model, shape, router, &mut rng);
        for fc in &work.fc_ops {
            out.push(Kernel::Gemm {
                shape: fc.shape,
                dram_bytes: fc.shape.weight_bytes(bpe),
            });
        }
        for op in &work.attn {
            let kv = op.kv_dram_bytes(bpe);
            let (rows, cols) = op.softmax_dims();
            out.push(Kernel::Gemm {
                shape: op.score_shape(),
                dram_bytes: kv / 2,
            });
            out.push(Kernel::Softmax { rows, cols });
            out.push(Kernel::Gemm {
                shape: op.value_shape(),
                dram_bytes: kv - kv / 2,
            });
        }
    }
    out
}

/// The microcase results, named as the per-layer metrics.
pub struct Micro {
    pub enumerate: Case,
    pub kernel_cold: Case,
    pub kernel_memo: Case,
    pub stream: Case,
    pub executor_new: Case,
    pub calibrate: Case,
}

/// Run every microcase on `shapes` within `budget` in total.
pub fn run(
    model: &ModelConfig,
    system: &SystemConfig,
    shapes: &[StageShape],
    budget: Duration,
) -> Micro {
    let each = budget / 6;
    let router = ExpertRouter::uniform(model.n_experts.max(1), model.top_k.max(1));
    let mut rng = StdRng::seed_from_u64(0);
    let enumerate = repeat(each, shapes.len(), || {
        for shape in shapes {
            black_box(enumerate_stage(model, black_box(shape), &router, &mut rng));
        }
    });

    let kernels = kernels(model, &router, shapes);
    let engines = [Engine::h100_xpu(), Engine::logic_pim()];
    let calls = kernels.len() * engines.len();
    let kernel_cold = repeat(each, calls, || {
        for engine in &engines {
            for k in &kernels {
                black_box(engine.kernel_cost_uncached(black_box(k)));
            }
        }
    });
    // The first pass fills each engine's memo table; the median is
    // taken over the passes that hit it.
    let kernel_memo = repeat(each, calls, || {
        for engine in &engines {
            for k in &kernels {
                black_box(engine.kernel_cost(black_box(k)));
            }
        }
    });

    let profile = duplex::compute::engine::default_profile();
    let bytes: Vec<u64> = kernels
        .iter()
        .map(Kernel::dram_bytes)
        .filter(|&b| b > 0)
        .collect();
    let stream = repeat(each, bytes.len() * AccessPath::ALL.len(), || {
        for path in AccessPath::ALL {
            for &b in &bytes {
                black_box(profile.stream_seconds(path, 5, black_box(b)));
            }
        }
    });

    let executor_new = repeat(each, 1, || {
        black_box(SystemExecutor::new(
            system.clone(),
            model.clone(),
            EXECUTOR_SEED,
        ));
    });
    let calibrate = repeat(each, 1, || {
        black_box(BandwidthProfile::calibrate(
            &HbmGeometry::hbm3_8hi(),
            &HbmTiming::hbm3(),
        ));
    });
    Micro {
        enumerate,
        kernel_cold,
        kernel_memo,
        stream,
        executor_new,
        calibrate,
    }
}
