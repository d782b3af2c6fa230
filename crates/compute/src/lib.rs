//! Processing-unit models for the Duplex simulator.
//!
//! The paper pairs two classes of processing units inside one device:
//!
//! * the **xPU** — an H100-class accelerator die behind the interposer,
//!   built for high-Op/B GEMMs (~989 TFLOPS dense FP16, ~3.35 TB/s of
//!   HBM3);
//! * **Logic-PIM** — GEMM/softmax/activation modules on the HBM logic
//!   die, fed 4x the conventional bandwidth through added TSVs, sized
//!   for Op/B 1–32 (21.3 TFLOPS per stack, Sec. VI);
//!
//! plus two prior-PIM baselines used in Fig. 8 and Fig. 14:
//!
//! * **Bank-PIM** — in-bank processing units, 16x conventional peak
//!   bandwidth but peak Op/B of 1;
//! * **BankGroup-PIM** — Logic-PIM's bandwidth and compute placed on
//!   the DRAM die, paying the DRAM-process area penalty.
//!
//! This crate turns those descriptions into a cost model: [`spec`]
//! declares each engine, [`kernel`] describes the work (GEMM shapes,
//! softmax, element-wise ops), [`engine`] prices a kernel on an engine
//! (roofline over the *sustained* bandwidth calibrated by
//! [`duplex_hbm`]), [`energy`] adds compute energy, and [`area`] holds
//! the synthesized area numbers of Sec. VII-E together with the EDAP
//! metric of Fig. 8.
//!
//! # Example
//!
//! Price one decode-style expert GEMM on the xPU and on Logic-PIM:
//!
//! ```
//! use duplex_compute::{Engine, kernel::GemmShape};
//!
//! let xpu = Engine::h100_xpu();
//! let pim = Engine::logic_pim();
//! let gemm = GemmShape { m: 8, n: 14336, k: 4096 };
//! let weight_bytes = gemm.weight_bytes(2);
//! let on_xpu = xpu.gemm_cost(gemm, weight_bytes);
//! let on_pim = pim.gemm_cost(gemm, weight_bytes);
//! // Low-Op/B work is memory bound: the PIM's 4x bandwidth wins.
//! assert!(on_pim.seconds < on_xpu.seconds);
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod energy;
pub mod engine;
pub mod hash;
pub mod kernel;
pub mod spec;

pub use area::{AreaModel, Edap};
pub use energy::ComputeEnergy;
pub use engine::{Engine, KernelCost};
pub use kernel::{GemmShape, Kernel};
pub use spec::{EngineKind, EngineSpec};
