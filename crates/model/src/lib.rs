//! LLM architecture descriptions for the Duplex simulator.
//!
//! This crate knows what work an LLM stage *is*, independent of the
//! hardware that runs it:
//!
//! * [`config`] — model configurations (decoder count, hidden and
//!   intermediate dimensions, GQA group degree, expert count, top-k)
//!   with presets for the five models of Table I: Mixtral-8x7B, GLaM,
//!   Grok-1, OPT-66B and Llama3-70B; parameter counting and KV-cache
//!   sizing.
//! * [`ops`] — given the composition of a continuous-batching stage
//!   (which sequences are decoding at what context length, which are
//!   prefilling at what input length), enumerate every GEMM, attention
//!   operation and MoE expert invocation with exact shapes.
//! * [`routing`] — the gate: uniform (or skewed) top-k expert selection
//!   per token, producing per-expert token histograms, the input to
//!   expert co-processing.
//!
//! # Example
//!
//! ```
//! use duplex_model::{ModelConfig, ops::StageShape};
//! use duplex_model::routing::ExpertRouter;
//!
//! let mixtral = ModelConfig::mixtral_8x7b();
//! assert_eq!(mixtral.n_experts, 8);
//! // ~47B parameters, as in Table I.
//! let b = mixtral.param_count() as f64 / 1e9;
//! assert!((b - 47.0).abs() < 2.0);
//!
//! // A decoding-only stage with 4 requests at context 1024.
//! let stage = StageShape::decode_only(&[1024; 4]);
//! let mut rng = rand::rng();
//! let router = ExpertRouter::uniform(mixtral.n_experts, mixtral.top_k);
//! let work = duplex_model::ops::enumerate_stage(&mixtral, &stage, &router, &mut rng);
//! assert_eq!(work.moe.len(), mixtral.moe_block_count() as usize);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod kv_cache;
pub mod ops;
pub mod routing;

pub use config::ModelConfig;
pub use kv_cache::{EvictionPolicy, KvCacheError, KvEvent, PagedKvCache};
pub use ops::{AttnOp, ContextGroups, FcOp, MoeLayerWork, StageShape, StageWork};
pub use routing::ExpertRouter;
