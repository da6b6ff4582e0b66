//! # lumos-xformer — transformer workload subsystem
//!
//! The paper's Table 2 zoo is five CNNs, but the photonic-interposer
//! advantage is most contested for bandwidth-bound batched GEMMs —
//! exactly the shape of transformer attention. This crate models
//! transformer inference as first-class platform workloads:
//!
//! * [`config`] — architectures the way model cards state them, with
//!   **exact** published parameter totals
//!   ([`TransformerConfig::param_count`])
//! * [`ops`] — the **prefill** pass: attention decomposed into batched
//!   GEMMs (fused QKV, `Q·Kᵀ`, `softmax·V`, output projection), MLP
//!   blocks, and explicit softmax/layer-norm traffic passes,
//!   parameterized by sequence length and batch size
//! * [`decode`] — the **generation** pass: one token against a
//!   [`KvCache`], every GEMM collapsed to an `m = 1` GEMV, explicit
//!   KV-cache read/write traffic through HBM, parameterized by cache
//!   depth and batch size
//! * [`zoo`] — BERT-Base (109,482,240), GPT-2 small (124,439,808), and
//!   ViT-B/16 (86,567,656)
//! * [`dse`] — scenario/decode fingerprints, evaluation through the
//!   platform runner, and a memoized cache-depth sweep through the
//!   `lumos_dse` engine
//!
//! The lowering target is the same [`lumos_dnn::LayerWorkload`] the CNN
//! path uses, so transformer workloads flow through the unchanged
//! `lumos_core` runner: batched GEMMs spread across every MAC class of
//! the heterogeneous platform, and their activation-heavy streams ride
//! the photonic/electrical interposer models.
//!
//! # Examples
//!
//! ```
//! use lumos_core::{Platform, PlatformConfig};
//! use lumos_xformer::{dse, zoo};
//!
//! let cfg = PlatformConfig::paper_table1();
//! let report = dse::run(&cfg, &Platform::Siph2p5D, &zoo::bert_base(), 128, 1)?;
//! assert!(report.latency_ms() > 0.0);
//! assert!(report.layers.iter().any(|l| l.name == "l0_softmax"));
//! # Ok::<(), lumos_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decode;
pub mod dse;
pub mod ops;
pub mod zoo;

pub use config::{Embedding, TransformerConfig};
pub use decode::{
    decode_ops, extract_decode_workloads, extract_decode_workloads_nameless, DecodePhase, KvCache,
};
pub use dse::DecodePoint;
pub use ops::{extract_transformer_workloads, transformer_ops, OpKind, XformerOp};
