//! Decomposition of a transformer forward pass into the batched-GEMM,
//! softmax, and layer-norm operations the platform schedules.
//!
//! Each attention block lowers to four batched GEMMs — the fused QKV
//! projection, the per-head `Q·Kᵀ` score GEMM, the per-head
//! `softmax(scores)·V` context GEMM, and the output projection — with
//! the row-wise score softmax as an explicit traffic pass between them
//! (its `seq × seq` matrices are attention's second hot loop). MLP
//! blocks lower to the expand/contract GEMM pair, and every LayerNorm
//! emits its own elementwise pass: unlike a CNN's BatchNorm it cannot
//! fold into a neighbouring weighted layer.
//!
//! Traffic is accounted **per op**, not per layer: an op's
//! `input_bits` covers every operand streamed to the MAC chiplets
//! (both activation operands for the activation-activation score and
//! context GEMMs), `weight_bits` covers exactly the parameters it
//! streams (weights are streamed once regardless of batch — the
//! weight-reuse batching model of `Runner::run_batch`), and
//! `output_bits` the tensor written back.

use lumos_dnn::workload::{KernelClass, LayerWorkload, Precision};

use crate::config::{Embedding, TransformerConfig};

/// The role of one operation inside the transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Token gather / patch projection into the hidden dimension.
    Embed,
    /// Fused Q/K/V projection GEMM.
    QkvProj,
    /// Per-head `Q·Kᵀ` score GEMM.
    Scores,
    /// Row-wise softmax over the `seq × seq` score matrices.
    ScoreSoftmax,
    /// Per-head `softmax(scores)·V` context GEMM.
    Context,
    /// Attention output projection GEMM.
    OutProj,
    /// Post-attention LayerNorm.
    AttnNorm,
    /// MLP expansion GEMM (`d_model → d_ff`).
    FfExpand,
    /// MLP contraction GEMM (`d_ff → d_model`).
    FfContract,
    /// Post-MLP LayerNorm.
    FfNorm,
    /// Final stack LayerNorm.
    FinalNorm,
    /// KV-cache append: the freshly projected K/V rows of one decode
    /// step written back through HBM (decode phase only).
    KvWrite,
    /// BERT-style pooler GEMM over the class token.
    Pooler,
    /// Classification head GEMM.
    Head,
    /// Softmax over the classifier logits.
    HeadSoftmax,
}

impl OpKind {
    /// `true` for the ops of the attention sub-block (projections,
    /// scores, softmax, context, post-attention norm).
    pub fn is_attention(self) -> bool {
        matches!(
            self,
            OpKind::QkvProj
                | OpKind::Scores
                | OpKind::ScoreSoftmax
                | OpKind::Context
                | OpKind::OutProj
                | OpKind::AttnNorm
        )
    }
}

/// One scheduled transformer operation: dot-product geometry plus
/// element counts, precision-agnostic (multiply by a [`Precision`] via
/// [`XformerOp::to_workload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XformerOp {
    /// Unique name (`l3_scores`, `pooler`, …).
    pub name: String,
    /// Role in the block.
    pub kind: OpKind,
    /// Compute class the platform schedules.
    pub class: KernelClass,
    /// Weight elements streamed from memory. Zero for the
    /// activation-activation score/context GEMMs; for a token
    /// embedding, the *gathered* rows, not the full table.
    pub weight_elems: u64,
    /// Activation elements streamed in (all operands).
    pub input_elems: u64,
    /// Activation elements written back.
    pub output_elems: u64,
    /// Dot products (output elements of the reduction).
    pub dot_products: u64,
    /// Reduction length of each dot product.
    pub dot_length: u64,
    /// Multiply-accumulates (`dot_products · dot_length`).
    pub macs: u64,
}

impl XformerOp {
    /// A batched GEMM op: `batch` independent `m×k · k×n` products.
    #[allow(clippy::too_many_arguments)] // four GEMM dims + two streams
    pub(crate) fn gemm(
        name: String,
        kind: OpKind,
        m: u32,
        n: u32,
        k: u32,
        batch: u32,
        weight_elems: u64,
        input_elems: u64,
    ) -> Self {
        let dots = batch as u64 * m as u64 * n as u64;
        XformerOp {
            name,
            kind,
            class: KernelClass::Gemm { m, n, k, batch },
            weight_elems,
            input_elems,
            output_elems: dots,
            dot_products: dots,
            dot_length: k as u64,
            macs: dots * k as u64,
        }
    }

    /// An elementwise pass (softmax / layer-norm) over `rows` rows of
    /// `len` elements.
    pub(crate) fn elementwise(
        name: String,
        kind: OpKind,
        class: KernelClass,
        rows: u64,
        len: u64,
        weight_elems: u64,
    ) -> Self {
        XformerOp {
            name,
            kind,
            class,
            weight_elems,
            input_elems: rows * len,
            output_elems: rows * len,
            dot_products: rows,
            dot_length: len,
            macs: rows * len,
        }
    }

    /// Total elements moved (weights + in + out).
    pub fn total_elems(&self) -> u64 {
        self.weight_elems + self.input_elems + self.output_elems
    }

    /// Lowers the op to the [`LayerWorkload`] the platform runner
    /// consumes, at `precision`.
    pub fn to_workload(&self, precision: Precision) -> LayerWorkload {
        LayerWorkload {
            name: self.name.clone(),
            class: self.class,
            dot_products: self.dot_products,
            dot_length: self.dot_length,
            window: self.dot_length.max(1),
            macs: self.macs,
            weight_bits: self.weight_elems * precision.weight_bits as u64,
            input_bits: self.input_elems * precision.activation_bits as u64,
            output_bits: self.output_elems * precision.activation_bits as u64,
        }
    }
}

/// The full forward pass of `cfg` at `seq_len` requested tokens and
/// `batch` parallel inferences, in execution order.
///
/// The sequence length is first resolved through
/// [`TransformerConfig::effective_seq`] (text models clamp to their
/// position table; patch models always run at their native patch
/// count). GPT-2-style causal masking is not exploited: score GEMMs
/// and softmax are accounted at the full `seq × seq` matrix, matching
/// the published FLOP-counting convention.
///
/// # Panics
///
/// Panics if `batch == 0`, if `batch × heads` (the batch of the
/// per-head score and context GEMMs) overflows `u32`, or if `cfg` fails
/// [`TransformerConfig::validate`].
pub fn transformer_ops(cfg: &TransformerConfig, seq_len: u32, batch: u32) -> Vec<XformerOp> {
    assert!(batch > 0, "batch must be at least 1");
    cfg.validate();
    let s = cfg.effective_seq(seq_len);
    let b = batch;
    let d = cfg.d_model;
    let h = cfg.heads;
    let dh = cfg.head_dim();
    let f = cfg.d_ff;
    let bh = b
        .checked_mul(h)
        .unwrap_or_else(|| panic!("{}: batch {b} × {h} heads overflows u32", cfg.name));
    let (bs, sd) = (b as u64 * s as u64, s as u64 * d as u64);
    let tokens_d = b as u64 * sd; // B·S·D hidden-state elements

    let mut ops = Vec::with_capacity(2 + 9 * cfg.layers as usize + 4);

    // Embedding stage.
    match cfg.embedding {
        Embedding::Token {
            segments,
            layer_norm,
            ..
        } => {
            // Gathered token rows (per batch item) plus the shared
            // position (and segment) rows, streamed once.
            let gathered = tokens_d + (1 + u64::from(segments > 0)) * sd;
            ops.push(XformerOp::elementwise(
                "embed".into(),
                OpKind::Embed,
                KernelClass::Norm,
                bs,
                d as u64,
                gathered,
            ));
            if layer_norm {
                ops.push(XformerOp::elementwise(
                    "embed_norm".into(),
                    OpKind::Embed,
                    KernelClass::Norm,
                    bs,
                    d as u64,
                    2 * d as u64,
                ));
            }
        }
        Embedding::Patch {
            image,
            patch,
            channels,
        } => {
            // Patch projection is a real GEMM over the unfolded
            // patches; class token and position table ride along as
            // weight streams.
            let k = patch * patch * channels;
            let patches = (image / patch).pow(2);
            let proj_w = k as u64 * d as u64 + d as u64;
            let extras = d as u64 + s as u64 * d as u64; // cls + positions
            ops.push(XformerOp::gemm(
                "patch_embed".into(),
                OpKind::Embed,
                patches,
                d,
                k,
                b,
                proj_w + extras,
                b as u64 * (image as u64 * image as u64 * channels as u64),
            ));
        }
    }

    // Encoder layers.
    for l in 0..cfg.layers {
        let p = |op: &str| format!("l{l}_{op}");
        ops.push(XformerOp::gemm(
            p("qkv"),
            OpKind::QkvProj,
            s,
            3 * d,
            d,
            b,
            3 * (d as u64 * d as u64 + d as u64),
            tokens_d,
        ));
        ops.push(XformerOp::gemm(
            p("scores"),
            OpKind::Scores,
            s,
            s,
            dh,
            bh,
            0,
            2 * tokens_d, // Q and K
        ));
        let score_rows = b as u64 * h as u64 * s as u64;
        ops.push(XformerOp::elementwise(
            p("softmax"),
            OpKind::ScoreSoftmax,
            KernelClass::Softmax,
            score_rows,
            s as u64,
            0,
        ));
        ops.push(XformerOp::gemm(
            p("context"),
            OpKind::Context,
            s,
            dh,
            s,
            bh,
            0,
            score_rows * s as u64 + tokens_d, // attention weights and V
        ));
        ops.push(XformerOp::gemm(
            p("out_proj"),
            OpKind::OutProj,
            s,
            d,
            d,
            b,
            d as u64 * d as u64 + d as u64,
            tokens_d,
        ));
        ops.push(XformerOp::elementwise(
            p("attn_norm"),
            OpKind::AttnNorm,
            KernelClass::Norm,
            bs,
            d as u64,
            2 * d as u64,
        ));
        ops.push(XformerOp::gemm(
            p("ff1"),
            OpKind::FfExpand,
            s,
            f,
            d,
            b,
            d as u64 * f as u64 + f as u64,
            tokens_d,
        ));
        ops.push(XformerOp::gemm(
            p("ff2"),
            OpKind::FfContract,
            s,
            d,
            f,
            b,
            f as u64 * d as u64 + d as u64,
            b as u64 * s as u64 * f as u64,
        ));
        ops.push(XformerOp::elementwise(
            p("ff_norm"),
            OpKind::FfNorm,
            KernelClass::Norm,
            bs,
            d as u64,
            2 * d as u64,
        ));
    }

    // Tail.
    if cfg.final_layer_norm {
        ops.push(XformerOp::elementwise(
            "final_norm".into(),
            OpKind::FinalNorm,
            KernelClass::Norm,
            bs,
            d as u64,
            2 * d as u64,
        ));
    }
    if cfg.pooler {
        ops.push(XformerOp::gemm(
            "pooler".into(),
            OpKind::Pooler,
            1,
            d,
            d,
            b,
            d as u64 * d as u64 + d as u64,
            b as u64 * d as u64, // the class token
        ));
    }
    if cfg.tied_lm_head {
        if let Embedding::Token { vocab, .. } = cfg.embedding {
            // Weight tying removes parameters, not work: every position
            // projects onto the full vocabulary (the token table,
            // streamed once), followed by the logit softmax.
            ops.push(XformerOp::gemm(
                "lm_head".into(),
                OpKind::Head,
                s,
                vocab,
                d,
                b,
                vocab as u64 * d as u64,
                tokens_d,
            ));
            ops.push(XformerOp::elementwise(
                "lm_head_softmax".into(),
                OpKind::HeadSoftmax,
                KernelClass::Softmax,
                bs,
                vocab as u64,
                0,
            ));
        }
    }
    if let Some(units) = cfg.head_units {
        ops.push(XformerOp::gemm(
            "head".into(),
            OpKind::Head,
            1,
            units,
            d,
            b,
            d as u64 * units as u64 + units as u64,
            b as u64 * d as u64,
        ));
        ops.push(XformerOp::elementwise(
            "head_softmax".into(),
            OpKind::HeadSoftmax,
            KernelClass::Softmax,
            b as u64,
            units as u64,
            0,
        ));
    }
    ops
}

/// Lowers the forward pass straight to the [`LayerWorkload`] sequence
/// `lumos_core::Runner::run_workloads` executes.
///
/// # Examples
///
/// ```
/// use lumos_dnn::workload::{totals, Precision};
/// use lumos_xformer::extract_transformer_workloads;
///
/// let bert = lumos_xformer::zoo::bert_base();
/// let work = extract_transformer_workloads(&bert, 128, 1, Precision::int8());
/// let t = totals(&work);
/// assert!(t.macs > 10_000_000_000); // ~11.2 GMAC at seq 128
/// ```
pub fn extract_transformer_workloads(
    cfg: &TransformerConfig,
    seq_len: u32,
    batch: u32,
    precision: Precision,
) -> Vec<LayerWorkload> {
    transformer_ops(cfg, seq_len, batch)
        .iter()
        .map(|op| op.to_workload(precision))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use lumos_dnn::workload::totals;

    #[test]
    fn bert_layer_decomposition() {
        let bert = zoo::bert_base();
        let ops = transformer_ops(&bert, 128, 1);
        // embed + embed_norm + 12 × 9 + pooler.
        assert_eq!(ops.len(), 2 + 12 * 9 + 1);
        let scores = ops
            .iter()
            .find(|o| o.name == "l0_scores")
            .expect("BERT layer 0 lowers a score GEMM");
        assert_eq!(
            scores.class,
            KernelClass::Gemm {
                m: 128,
                n: 128,
                k: 64,
                batch: 12
            }
        );
        assert_eq!(scores.macs, 12 * 128 * 128 * 64);
        assert_eq!(scores.weight_elems, 0);
    }

    #[test]
    fn score_softmax_traffic_is_quadratic_in_seq() {
        let bert = zoo::bert_base();
        let at = |s: u32| {
            let ops = transformer_ops(&bert, s, 1);
            ops.iter()
                .find(|o| o.kind == OpKind::ScoreSoftmax)
                .expect("every attention layer lowers a score softmax")
                .input_elems
        };
        assert_eq!(at(128), 12 * 128 * 128);
        assert_eq!(at(256), 4 * at(128));
    }

    #[test]
    fn static_weight_elems_match_param_count() {
        // Every parameter outside the embedding stage is streamed
        // exactly once (regardless of batch), so the op-level weight
        // accounting must reproduce the architecture-level count.
        for cfg in zoo::transformer_zoo() {
            let ops = transformer_ops(&cfg, 128, 4);
            let streamed: u64 = ops
                .iter()
                .filter(|o| o.kind != OpKind::Embed)
                .map(|o| o.weight_elems)
                .sum();
            // A tied LM head streams the token table again without
            // owning any parameters.
            let tied = match (cfg.tied_lm_head, cfg.embedding) {
                (true, Embedding::Token { vocab, .. }) => vocab as u64 * cfg.d_model as u64,
                _ => 0,
            };
            assert_eq!(
                streamed,
                cfg.param_count() - cfg.embedding_params() + tied,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn workload_lowering_applies_precision() {
        let gpt2 = zoo::gpt2_small();
        let w8 = extract_transformer_workloads(&gpt2, 64, 2, Precision::int8());
        let w16 = extract_transformer_workloads(&gpt2, 64, 2, Precision::int16());
        assert_eq!(w8.len(), w16.len());
        for (a, b) in w8.iter().zip(&w16) {
            assert_eq!(2 * a.weight_bits, b.weight_bits);
            assert_eq!(2 * a.input_bits, b.input_bits);
            assert_eq!(a.macs, b.macs);
        }
        let t = totals(&w8);
        assert_eq!(t.total_bits, t.weight_bits + t.activation_bits);
    }

    #[test]
    fn vit_runs_at_native_seq() {
        let vit = zoo::vit_b16();
        let a = transformer_ops(&vit, 64, 1);
        let b = transformer_ops(&vit, 512, 1);
        assert_eq!(a, b, "patch models ignore the requested seq");
        let scores = a
            .iter()
            .find(|o| o.kind == OpKind::Scores)
            .expect("ViT lowers a score GEMM");
        assert_eq!(
            scores.class,
            KernelClass::Gemm {
                m: 197,
                n: 197,
                k: 64,
                batch: 12
            }
        );
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        let _ = transformer_ops(&zoo::bert_base(), 128, 0);
    }

    #[test]
    #[should_panic(expected = "batch 1073741824 × 12 heads overflows u32")]
    fn batch_times_heads_overflow_rejected() {
        let _ = transformer_ops(&zoo::bert_base(), 128, 1 << 30);
    }
}
