//! KV-cached autoregressive decode: the generation-phase lowering.
//!
//! Prefill ([`crate::ops::transformer_ops`]) runs the full `seq × seq`
//! attention once; generation then emits one token at a time, and each
//! step is a fundamentally different workload: every GEMM collapses to
//! `m = 1` (a GEMV, see [`KernelClass::is_gemv`]), the score and
//! context "matrices" become single rows against a `cache_len`-deep KV
//! cache, and the traffic balance flips from weight-streaming to
//! KV-cache-streaming — the bandwidth-bound regime where the photonic
//! interposer's edge is most contested.
//!
//! One decode step at cache depth `L` (batch `b`, `h` heads,
//! per-head dimension `d_h`):
//!
//! * the projections (`QKV`, output, MLP) are `m = 1` batched GEMMs —
//!   identical weight traffic to prefill, `1/seq` of the compute;
//! * an explicit [`OpKind::KvWrite`] pass appends the fresh K/V rows
//!   (`2·d_model` elements per stream) to the cache in HBM;
//! * the score GEMV `q·Kᵀ` is `batch = b·h` of `1×d_h · d_h×(L+1)` —
//!   its K operand is the **full cache read** (`(L+1)·d_model` elements
//!   per stream) straight from memory;
//! * the context GEMV reads the V half of the cache the same way.
//!
//! The per-step KV read therefore grows linearly in `L` while compute
//! stays almost flat: [`KvCache`] carries the exact element counts so
//! tests and reports can separate cache traffic from weight traffic.
//!
//! Unlike prefill, decode does **not** clamp the cache depth to the
//! architecture's position table: cache depth is a *runtime* property
//! of the serving system (extrapolated positions are a model-quality
//! question, not a traffic question), so the lowering models exactly
//! the depth it is given.

use lumos_dnn::workload::{KernelClass, LayerWorkload, Precision};

use crate::config::{Embedding, TransformerConfig};
use crate::ops::{OpKind, XformerOp};

/// The KV-cache state one decode step attends against: `len` tokens
/// already cached, `batch` independent generation streams.
///
/// # Examples
///
/// ```
/// use lumos_dnn::workload::Precision;
/// use lumos_xformer::decode::KvCache;
///
/// let gpt2 = lumos_xformer::zoo::gpt2_small();
/// let cache = KvCache::new(512, 1);
/// // K and V, 512 tokens × 768 hidden, over 12 layers at 8 bits:
/// assert_eq!(cache.total_bits(&gpt2, Precision::int8()), 12 * 2 * 512 * 768 * 8);
/// // One step reads the whole cache plus the fresh row:
/// assert_eq!(cache.read_bits_per_step(&gpt2, Precision::int8()), 12 * 2 * 513 * 768 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvCache {
    /// Tokens already cached (the decode step's context minus itself).
    pub len: u32,
    /// Independent generation streams sharing the step.
    pub batch: u32,
}

impl KvCache {
    /// A cache of `len` tokens for `batch` streams.
    pub fn new(len: u32, batch: u32) -> Self {
        KvCache { len, batch }
    }

    /// Positions the new token attends to: the cache plus itself.
    pub fn context(&self) -> u32 {
        self.len + 1
    }

    /// Elements resident in the cache per layer **per stream**: K and V
    /// rows for every cached token (`2 · len · d_model`).
    fn elems_per_layer(&self, cfg: &TransformerConfig) -> u64 {
        2 * self.len as u64 * cfg.d_model as u64
    }

    /// Elements one decode step streams out of memory per layer per
    /// stream: the K and V operands over the full context
    /// (`2 · (len + 1) · d_model` — the cache plus the fresh row).
    fn read_elems_per_layer(&self, cfg: &TransformerConfig) -> u64 {
        2 * self.context() as u64 * cfg.d_model as u64
    }

    /// Elements one decode step appends per layer per stream: the fresh
    /// K and V rows (`2 · d_model`).
    pub fn write_elems_per_layer(&self, cfg: &TransformerConfig) -> u64 {
        2 * cfg.d_model as u64
    }

    /// Total cache footprint across all layers and streams, in bits at
    /// `precision` activation width.
    pub fn total_bits(&self, cfg: &TransformerConfig, precision: Precision) -> u64 {
        self.batch as u64
            * cfg.layers as u64
            * self.elems_per_layer(cfg)
            * precision.activation_bits as u64
    }

    /// Total KV bits one decode step reads across all layers and
    /// streams at `precision` — the traffic term that grows linearly in
    /// cache depth while compute stays flat.
    pub fn read_bits_per_step(&self, cfg: &TransformerConfig, precision: Precision) -> u64 {
        self.batch as u64
            * cfg.layers as u64
            * self.read_elems_per_layer(cfg)
            * precision.activation_bits as u64
    }
}

/// One autoregressive decode step, ready to lower: the architecture's
/// generation phase at a given [`KvCache`] state.
///
/// The prefill counterpart is `(cfg, seq_len, batch)` through
/// [`crate::ops::transformer_ops`]; a decode phase is `(cfg, cache)`
/// through [`DecodePhase::ops`] / [`DecodePhase::workloads`]. A full
/// generation of `n` tokens is prefill once plus `n` phases whose cache
/// advances by one token each (`lumos_serve::ServedModel::generator`
/// builds exactly that stage list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodePhase {
    /// KV-cache state the step attends against.
    pub cache: KvCache,
}

impl DecodePhase {
    /// A decode step at cache depth `cache_len` for `batch` streams.
    pub fn new(cache_len: u32, batch: u32) -> Self {
        DecodePhase {
            cache: KvCache::new(cache_len, batch),
        }
    }

    /// Lowers the step to its operation sequence (see [`decode_ops`]).
    pub fn ops(&self, cfg: &TransformerConfig) -> Vec<XformerOp> {
        decode_ops(cfg, self.cache.len, self.cache.batch)
    }

    /// Lowers the step straight to runner workloads (see
    /// [`extract_decode_workloads`]).
    pub fn workloads(&self, cfg: &TransformerConfig, precision: Precision) -> Vec<LayerWorkload> {
        extract_decode_workloads(cfg, self.cache.len, self.cache.batch, precision)
    }
}

/// One decode step of `cfg`: a single new token per stream attending
/// against a `cache_len`-deep KV cache, `batch` streams, in execution
/// order — the generation-phase counterpart of
/// [`crate::ops::transformer_ops`].
///
/// Every weighted projection becomes an `m = 1` batched GEMM (same
/// weight stream as prefill, `1/seq` of the dot products); each layer
/// gains an explicit [`OpKind::KvWrite`] cache-append pass; and the
/// score/context GEMVs carry the full per-step cache read as input
/// traffic (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `batch == 0`, if `batch × heads` (the batch of the
/// per-head score and context GEMMs) overflows `u32`, if `cfg` fails
/// [`TransformerConfig::validate`], or if `cfg` is a patch model
/// ([`Embedding::Patch`]): ViT-style encoders classify in one pass and
/// have no autoregressive decode phase.
pub fn decode_ops(cfg: &TransformerConfig, cache_len: u32, batch: u32) -> Vec<XformerOp> {
    lower_step(cfg, cache_len, batch, true)
}

/// The one decode-step lowering behind [`decode_ops`] and the two
/// workload lowerings: every op `decode_ops` documents, named
/// (`l3_scores`, `lm_head`, …) when `named`, with empty names
/// otherwise.
fn lower_step(cfg: &TransformerConfig, cache_len: u32, batch: u32, named: bool) -> Vec<XformerOp> {
    assert!(batch > 0, "batch must be at least 1");
    cfg.validate();
    assert!(
        matches!(cfg.embedding, Embedding::Token { .. }),
        "{}: patch models are not autoregressive — no decode phase",
        cfg.name
    );
    let b = batch;
    let d = cfg.d_model;
    let h = cfg.heads;
    let dh = cfg.head_dim();
    let f = cfg.d_ff;
    let bh = b
        .checked_mul(h)
        .unwrap_or_else(|| panic!("{}: batch {b} × {h} heads overflows u32", cfg.name));
    let ctx = cache_len as u64 + 1;
    let bd = b as u64 * d as u64; // one hidden-state row per stream

    // `l{l}_{op}` inside layer `l`, the op alone outside the stack.
    let name = |layer: Option<u32>, op: &str| match (named, layer) {
        (false, _) => String::new(),
        (true, Some(l)) => format!("l{l}_{op}"),
        (true, None) => op.to_owned(),
    };

    let mut ops = Vec::with_capacity(2 + 10 * cfg.layers as usize + 4);

    // Embedding: gather one token row per stream plus the shared
    // position (and segment) rows — the seq-1 slice of prefill's
    // embedding stage.
    if let Embedding::Token {
        segments,
        layer_norm,
        ..
    } = cfg.embedding
    {
        let gathered = bd + (1 + u64::from(segments > 0)) * d as u64;
        ops.push(XformerOp::elementwise(
            name(None, "embed"),
            OpKind::Embed,
            KernelClass::Norm,
            b as u64,
            d as u64,
            gathered,
        ));
        if layer_norm {
            ops.push(XformerOp::elementwise(
                name(None, "embed_norm"),
                OpKind::Embed,
                KernelClass::Norm,
                b as u64,
                d as u64,
                2 * d as u64,
            ));
        }
    }

    for l in 0..cfg.layers {
        let p = |op: &str| name(Some(l), op);
        ops.push(XformerOp::gemm(
            p("qkv"),
            OpKind::QkvProj,
            1,
            3 * d,
            d,
            b,
            3 * (d as u64 * d as u64 + d as u64),
            bd,
        ));
        // Cache append: the fresh K and V rows stream back to HBM. A
        // pure store, so no input operand and negligible elementwise
        // "compute" — its cost is the write traffic.
        let kv_new = 2 * bd;
        ops.push(XformerOp {
            name: p("kv_write"),
            kind: OpKind::KvWrite,
            class: KernelClass::Norm,
            weight_elems: 0,
            input_elems: 0,
            output_elems: kv_new,
            dot_products: b as u64,
            dot_length: 2 * d as u64,
            macs: kv_new,
        });
        // q·Kᵀ: one query row against the whole context, per head. The
        // K operand is the full cache read plus the fresh row.
        ops.push(XformerOp::gemm(
            p("scores"),
            OpKind::Scores,
            1,
            ctx as u32,
            dh,
            bh,
            0,
            bd + bd * ctx, // q, then K over the context
        ));
        let score_rows = b as u64 * h as u64;
        ops.push(XformerOp::elementwise(
            p("softmax"),
            OpKind::ScoreSoftmax,
            KernelClass::Softmax,
            score_rows,
            ctx,
            0,
        ));
        // softmax·V: the attention row against the V half of the cache.
        ops.push(XformerOp::gemm(
            p("context"),
            OpKind::Context,
            1,
            dh,
            ctx as u32,
            bh,
            0,
            score_rows * ctx + bd * ctx, // attention weights, then V
        ));
        ops.push(XformerOp::gemm(
            p("out_proj"),
            OpKind::OutProj,
            1,
            d,
            d,
            b,
            d as u64 * d as u64 + d as u64,
            bd,
        ));
        ops.push(XformerOp::elementwise(
            p("attn_norm"),
            OpKind::AttnNorm,
            KernelClass::Norm,
            b as u64,
            d as u64,
            2 * d as u64,
        ));
        ops.push(XformerOp::gemm(
            p("ff1"),
            OpKind::FfExpand,
            1,
            f,
            d,
            b,
            d as u64 * f as u64 + f as u64,
            bd,
        ));
        ops.push(XformerOp::gemm(
            p("ff2"),
            OpKind::FfContract,
            1,
            d,
            f,
            b,
            f as u64 * d as u64 + d as u64,
            b as u64 * f as u64,
        ));
        ops.push(XformerOp::elementwise(
            p("ff_norm"),
            OpKind::FfNorm,
            KernelClass::Norm,
            b as u64,
            d as u64,
            2 * d as u64,
        ));
    }

    // Tail: same structure as prefill at a single position.
    if cfg.final_layer_norm {
        ops.push(XformerOp::elementwise(
            name(None, "final_norm"),
            OpKind::FinalNorm,
            KernelClass::Norm,
            b as u64,
            d as u64,
            2 * d as u64,
        ));
    }
    if cfg.pooler {
        ops.push(XformerOp::gemm(
            name(None, "pooler"),
            OpKind::Pooler,
            1,
            d,
            d,
            b,
            d as u64 * d as u64 + d as u64,
            bd,
        ));
    }
    if cfg.tied_lm_head {
        if let Embedding::Token { vocab, .. } = cfg.embedding {
            ops.push(XformerOp::gemm(
                name(None, "lm_head"),
                OpKind::Head,
                1,
                vocab,
                d,
                b,
                vocab as u64 * d as u64,
                bd,
            ));
            ops.push(XformerOp::elementwise(
                name(None, "lm_head_softmax"),
                OpKind::HeadSoftmax,
                KernelClass::Softmax,
                b as u64,
                vocab as u64,
                0,
            ));
        }
    }
    if let Some(units) = cfg.head_units {
        ops.push(XformerOp::gemm(
            name(None, "head"),
            OpKind::Head,
            1,
            units,
            d,
            b,
            d as u64 * units as u64 + units as u64,
            bd,
        ));
        ops.push(XformerOp::elementwise(
            name(None, "head_softmax"),
            OpKind::HeadSoftmax,
            KernelClass::Softmax,
            b as u64,
            units as u64,
            0,
        ));
    }
    ops
}

/// Lowers one decode step straight to the [`LayerWorkload`] sequence
/// `lumos_core::Runner::run_workloads` executes — the generation-phase
/// counterpart of [`crate::ops::extract_transformer_workloads`],
/// parameterized by cache depth where prefill is parameterized by
/// sequence length.
///
/// # Examples
///
/// ```
/// use lumos_dnn::workload::{totals, Precision};
/// use lumos_xformer::decode::extract_decode_workloads;
/// use lumos_xformer::extract_transformer_workloads;
///
/// let gpt2 = lumos_xformer::zoo::gpt2_small();
/// let step = extract_decode_workloads(&gpt2, 511, 1, Precision::int8());
/// let prefill = extract_transformer_workloads(&gpt2, 512, 1, Precision::int8());
/// // One token's compute is a tiny fraction of the 512-token prefill…
/// assert!(totals(&step).macs * 16 < totals(&prefill).macs);
/// // …and every projection GEMM collapsed to a GEMV.
/// assert!(step.iter().any(|w| w.class.is_gemv()));
/// ```
pub fn extract_decode_workloads(
    cfg: &TransformerConfig,
    cache_len: u32,
    batch: u32,
    precision: Precision,
) -> Vec<LayerWorkload> {
    decode_ops(cfg, cache_len, batch)
        .iter()
        .map(|op| op.to_workload(precision))
        .collect()
}

/// [`extract_decode_workloads`] with every name left empty: the same
/// workloads, field for field, but for `name`. A GPT-2 step names 124
/// layers; a caller that keeps only their shapes (a
/// `lumos_core::ShapeTable`) need not format them.
///
/// # Panics
///
/// As [`decode_ops`].
pub fn extract_decode_workloads_nameless(
    cfg: &TransformerConfig,
    cache_len: u32,
    batch: u32,
    precision: Precision,
) -> Vec<LayerWorkload> {
    lower_step(cfg, cache_len, batch, false)
        .iter()
        .map(|op| op.to_workload(precision))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::transformer_ops;
    use crate::zoo;
    use lumos_dnn::workload::totals;

    #[test]
    fn gpt2_step_decomposition() {
        let gpt2 = zoo::gpt2_small();
        let ops = decode_ops(&gpt2, 512, 1);
        // embed + 12 × 10 + final_norm + lm_head + lm_head_softmax.
        assert_eq!(ops.len(), 1 + 12 * 10 + 3);
        let scores = ops
            .iter()
            .find(|o| o.name == "l0_scores")
            .expect("decode layer 0 lowers a score GEMV");
        assert_eq!(
            scores.class,
            KernelClass::Gemm {
                m: 1,
                n: 513,
                k: 64,
                batch: 12
            }
        );
        assert!(scores.class.is_gemv());
        // K operand: the full 513-token context read, per layer.
        assert_eq!(scores.input_elems, 768 + 768 * 513);
    }

    #[test]
    fn kv_write_is_pure_output_traffic() {
        let gpt2 = zoo::gpt2_small();
        let ops = decode_ops(&gpt2, 128, 4);
        let w = ops
            .iter()
            .find(|o| o.kind == OpKind::KvWrite)
            .expect("every decode layer appends to the KV cache");
        assert_eq!(w.weight_elems, 0);
        assert_eq!(w.input_elems, 0);
        assert_eq!(w.output_elems, 2 * 4 * 768);
        assert_eq!(
            ops.iter().filter(|o| o.kind == OpKind::KvWrite).count(),
            12,
            "one cache append per layer"
        );
    }

    #[test]
    fn kv_read_grows_linearly_with_cache_depth() {
        let gpt2 = zoo::gpt2_small();
        let read_at = |l: u32| {
            decode_ops(&gpt2, l, 1)
                .iter()
                .filter(|o| o.kind == OpKind::Scores || o.kind == OpKind::Context)
                .map(|o| o.input_elems)
                .sum::<u64>()
        };
        // Attention input traffic is affine in the context depth; the
        // slope per extra cached token is 12 layers × (K + V + weights).
        let slope = read_at(1024) - read_at(1023);
        assert_eq!(slope, 12 * (2 * 768 + 12));
        assert_eq!(read_at(2048) - read_at(1024), 1024 * slope);
    }

    #[test]
    fn kv_cache_accounting_matches_ops() {
        let gpt2 = zoo::gpt2_small();
        let cache = KvCache::new(512, 2);
        assert_eq!(cache.context(), 513);
        // The ops' K+V operand streams equal the cache's read figure.
        let kv_in: u64 = decode_ops(&gpt2, 512, 2)
            .iter()
            .filter(|o| o.kind == OpKind::Scores || o.kind == OpKind::Context)
            .map(|o| o.input_elems)
            .sum();
        let q_and_weights: u64 = 12 * (2 * 768 + 2 * 12 * 513);
        assert_eq!(
            kv_in - q_and_weights,
            12 * 2 * cache.read_elems_per_layer(&gpt2)
        );
        // Footprint: 12 layers × 2 streams × 2×512×768 elems × 8 bits.
        assert_eq!(
            cache.total_bits(&gpt2, Precision::int8()),
            12 * 2 * 2 * 512 * 768 * 8
        );
    }

    #[test]
    fn decode_phase_delegates_to_free_functions() {
        let gpt2 = zoo::gpt2_small();
        let phase = DecodePhase::new(256, 2);
        assert_eq!(phase.ops(&gpt2), decode_ops(&gpt2, 256, 2));
        assert_eq!(
            phase.workloads(&gpt2, Precision::int8()),
            extract_decode_workloads(&gpt2, 256, 2, Precision::int8())
        );
    }

    #[test]
    fn step_zero_matches_seq1_prefill_gemm_shapes() {
        for cfg in [zoo::bert_base(), zoo::gpt2_small()] {
            let decode: Vec<_> = decode_ops(&cfg, 0, 3)
                .into_iter()
                .filter(|o| matches!(o.class, KernelClass::Gemm { .. }))
                .collect();
            let prefill: Vec<_> = transformer_ops(&cfg, 1, 3)
                .into_iter()
                .filter(|o| matches!(o.class, KernelClass::Gemm { .. }))
                .collect();
            assert_eq!(decode.len(), prefill.len(), "{}", cfg.name);
            for (d, p) in decode.iter().zip(&prefill) {
                assert_eq!(d.class, p.class, "{}: {}", cfg.name, d.name);
                assert_eq!(d.input_elems, p.input_elems, "{}: {}", cfg.name, d.name);
                assert_eq!(d.weight_elems, p.weight_elems, "{}: {}", cfg.name, d.name);
            }
        }
    }

    #[test]
    fn decode_weight_stream_matches_prefill() {
        // Decode streams exactly the same parameters per step as
        // prefill does per pass: weights do not amortize over tokens.
        let gpt2 = zoo::gpt2_small();
        let w_of = |ops: &[XformerOp]| {
            ops.iter()
                .filter(|o| o.kind != OpKind::Embed)
                .map(|o| o.weight_elems)
                .sum::<u64>()
        };
        assert_eq!(
            w_of(&decode_ops(&gpt2, 1024, 1)),
            w_of(&transformer_ops(&gpt2, 128, 1))
        );
    }

    #[test]
    fn decode_macs_are_a_tiny_fraction_of_prefill() {
        for cfg in [zoo::bert_base(), zoo::gpt2_small()] {
            let step = totals(&extract_decode_workloads(&cfg, 127, 1, Precision::int8()));
            let prefill = totals(&crate::ops::extract_transformer_workloads(
                &cfg,
                128,
                1,
                Precision::int8(),
            ));
            assert!(
                step.macs * 16 < prefill.macs,
                "{}: decode step {} MACs vs prefill {}",
                cfg.name,
                step.macs,
                prefill.macs
            );
        }
    }

    #[test]
    #[should_panic(expected = "not autoregressive")]
    fn patch_models_cannot_decode() {
        let _ = decode_ops(&zoo::vit_b16(), 128, 1);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        let _ = decode_ops(&zoo::gpt2_small(), 128, 0);
    }

    #[test]
    #[should_panic(expected = "batch 1073741824 × 12 heads overflows u32")]
    fn batch_times_heads_overflow_rejected() {
        let _ =
            extract_decode_workloads_nameless(&zoo::gpt2_small(), 128, 1 << 30, Precision::int8());
    }
}
