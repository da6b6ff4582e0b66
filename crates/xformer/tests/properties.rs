//! Property-based tests for transformer shape inference and MAC/param
//! accounting invariants, over arbitrary `seq_len`/`heads`/`d_model`
//! architectures — prefill and KV-cached decode alike.

use lumos_dnn::workload::{totals, KernelClass, Precision};
use lumos_xformer::config::{Embedding, TransformerConfig};
use lumos_xformer::decode::{
    decode_ops, extract_decode_workloads, extract_decode_workloads_nameless, KvCache,
};
use lumos_xformer::ops::{extract_transformer_workloads, transformer_ops, OpKind};
use proptest::prelude::*;

/// Strategy: a random small text transformer that always validates
/// (`d_model = heads × head_dim` by construction).
fn random_transformer() -> impl Strategy<Value = TransformerConfig> {
    (
        (1u32..=8, prop::sample::select(vec![8u32, 16, 32, 64])), // heads × head_dim
        (1u32..=4, 1u32..=4),                                     // layers, d_ff multiplier
        (64u32..2048, 8u32..=256),                                // vocab, max positions
        (proptest::bool::ANY, proptest::bool::ANY),               // embed LN, final LN
    )
        .prop_map(
            |(
                (heads, head_dim),
                (layers, ff_mult),
                (vocab, max_positions),
                (embed_ln, final_ln),
            )| {
                let d_model = heads * head_dim;
                TransformerConfig {
                    name: "prop_xformer".into(),
                    d_model,
                    heads,
                    layers,
                    d_ff: ff_mult * d_model,
                    embedding: Embedding::Token {
                        vocab,
                        max_positions,
                        segments: 0,
                        layer_norm: embed_ln,
                    },
                    final_layer_norm: final_ln,
                    pooler: false,
                    head_units: None,
                    tied_lm_head: false,
                }
            },
        )
}

proptest! {
    /// Every op keeps `macs = dot_products · dot_length`, and the
    /// lowered workloads conserve the op-level totals.
    #[test]
    fn macs_equal_dots_times_length(
        cfg in random_transformer(),
        seq in 1u32..300,
        batch in 1u32..8,
    ) {
        let ops = transformer_ops(&cfg, seq, batch);
        prop_assert!(!ops.is_empty());
        for op in &ops {
            prop_assert_eq!(op.macs, op.dot_products * op.dot_length, "{}", op.name);
        }
        let work = extract_transformer_workloads(&cfg, seq, batch, Precision::int8());
        prop_assert_eq!(work.len(), ops.len());
        let op_macs: u64 = ops.iter().map(|o| o.macs).sum();
        prop_assert_eq!(totals(&work).macs, op_macs);
    }

    /// Static (non-embedding) weight traffic reproduces the
    /// architecture-level parameter count exactly, for every sequence
    /// length and batch size.
    #[test]
    fn weight_accounting_invariant(
        cfg in random_transformer(),
        seq in 1u32..300,
        batch in 1u32..8,
    ) {
        let streamed: u64 = transformer_ops(&cfg, seq, batch)
            .iter()
            .filter(|o| o.kind != OpKind::Embed)
            .map(|o| o.weight_elems)
            .sum();
        prop_assert_eq!(streamed, cfg.param_count() - cfg.embedding_params());
    }

    /// Doubling the batch doubles activation traffic and compute but
    /// leaves the static weight streams untouched (the weight-reuse
    /// batching model).
    #[test]
    fn batch_scales_activations_not_weights(
        cfg in random_transformer(),
        seq in 1u32..200,
        batch in 1u32..4,
    ) {
        let a = transformer_ops(&cfg, seq, batch);
        let b = transformer_ops(&cfg, seq, 2 * batch);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(2 * x.input_elems, y.input_elems, "{}", x.name);
            prop_assert_eq!(2 * x.output_elems, y.output_elems, "{}", x.name);
            prop_assert_eq!(2 * x.macs, y.macs, "{}", x.name);
            if x.kind != OpKind::Embed {
                prop_assert_eq!(x.weight_elems, y.weight_elems, "{}", x.name);
            }
        }
    }

    /// Attention's score/softmax/context ops scale quadratically with
    /// the effective sequence length; the projection GEMMs scale
    /// linearly.
    #[test]
    fn attention_is_quadratic_in_seq(cfg in random_transformer(), seq in 1u32..120) {
        // Stay inside the position table so the clamp cannot bend the
        // scaling law (max_positions >= 8 by construction).
        let max = match cfg.embedding {
            Embedding::Token { max_positions, .. } => max_positions,
            Embedding::Patch { .. } => unreachable!(),
        };
        let seq = seq.clamp(1, max / 2);
        let a = transformer_ops(&cfg, seq, 1);
        let b = transformer_ops(&cfg, 2 * seq, 1);
        for (x, y) in a.iter().zip(&b) {
            match x.kind {
                OpKind::Scores | OpKind::ScoreSoftmax | OpKind::Context => {
                    prop_assert_eq!(4 * x.macs, y.macs, "{}", x.name);
                }
                OpKind::QkvProj | OpKind::FfExpand | OpKind::FfContract => {
                    prop_assert_eq!(2 * x.macs, y.macs, "{}", x.name);
                }
                _ => {}
            }
        }
    }

    /// Shape inference: score GEMMs are `seq × seq` per head at the
    /// per-head reduction depth, and the softmax between them carries
    /// exactly the score matrix in and out.
    #[test]
    fn score_shapes_inferred(
        cfg in random_transformer(),
        seq in 1u32..300,
        batch in 1u32..8,
    ) {
        let s = cfg.effective_seq(seq);
        let ops = transformer_ops(&cfg, seq, batch);
        let scores = ops.iter().find(|o| o.kind == OpKind::Scores).unwrap();
        prop_assert_eq!(
            scores.class,
            KernelClass::Gemm { m: s, n: s, k: cfg.head_dim(), batch: batch * cfg.heads }
        );
        let sm = ops.iter().find(|o| o.kind == OpKind::ScoreSoftmax).unwrap();
        let score_elems = batch as u64 * cfg.heads as u64 * s as u64 * s as u64;
        prop_assert_eq!(sm.input_elems, score_elems);
        prop_assert_eq!(sm.output_elems, score_elems);
        prop_assert_eq!(sm.class, KernelClass::Softmax);
    }

    /// The effective sequence length never exceeds the position table,
    /// and requested lengths inside the table pass through unchanged.
    #[test]
    fn effective_seq_clamped(cfg in random_transformer(), seq in 1u32..4096) {
        let max = match cfg.embedding {
            Embedding::Token { max_positions, .. } => max_positions,
            Embedding::Patch { .. } => unreachable!(),
        };
        let eff = cfg.effective_seq(seq);
        prop_assert!(eff >= 1 && eff <= max);
        if seq <= max {
            prop_assert_eq!(eff, seq);
        }
    }

    /// Precision scales traffic only: MAC counts and dot geometry are
    /// precision-independent.
    #[test]
    fn precision_scales_traffic_only(cfg in random_transformer(), seq in 1u32..200) {
        let w8 = extract_transformer_workloads(&cfg, seq, 2, Precision::int8());
        let w16 = extract_transformer_workloads(&cfg, seq, 2, Precision::int16());
        for (a, b) in w8.iter().zip(&w16) {
            prop_assert_eq!(2 * a.weight_bits, b.weight_bits);
            prop_assert_eq!(2 * a.input_bits, b.input_bits);
            prop_assert_eq!(2 * a.output_bits, b.output_bits);
            prop_assert_eq!(a.macs, b.macs);
            prop_assert_eq!(a.dot_products, b.dot_products);
        }
    }

    /// A decode step's compute is a small fraction of the prefill that
    /// built its cache: one token's GEMVs against `seq` tokens' GEMMs.
    /// The exact ratio depends on the architecture (attention is
    /// quadratic in seq for prefill, linear for a step), but one step
    /// must always cost at most ~2/seq of the prefill's MACs.
    #[test]
    fn decode_macs_are_a_fraction_of_prefill(
        cfg in random_transformer(),
        batch in 1u32..4,
    ) {
        let max = match cfg.embedding {
            Embedding::Token { max_positions, .. } => max_positions,
            Embedding::Patch { .. } => unreachable!(),
        };
        let seq = max.max(8); // decode ignores the clamp; compare at the table edge
        let step = totals(&extract_decode_workloads(&cfg, seq - 1, batch, Precision::int8()));
        let prefill = totals(&extract_transformer_workloads(&cfg, seq, batch, Precision::int8()));
        prop_assert!(
            step.macs * (seq as u64 / 2).max(1) <= prefill.macs,
            "decode step {} MACs vs prefill {} at seq {}",
            step.macs, prefill.macs, seq
        );
    }

    /// KV traffic is strictly monotone in cache depth: a deeper cache
    /// means more bits read per step (and identical weight traffic).
    /// The nameless lowering is the named one with its names cleared.
    #[test]
    fn kv_traffic_monotone_in_cache_depth(
        cfg in random_transformer(),
        cache in 0u32..2048,
        deeper_by in 1u32..512,
        batch in 1u32..4,
    ) {
        let mut named = extract_decode_workloads(&cfg, cache, batch, Precision::int8());
        let a = totals(&named);
        for w in &mut named {
            w.name.clear();
        }
        prop_assert_eq!(
            extract_decode_workloads_nameless(&cfg, cache, batch, Precision::int8()),
            named
        );
        let b = totals(
            &extract_decode_workloads(&cfg, cache + deeper_by, batch, Precision::int8()),
        );
        prop_assert!(a.total_bits < b.total_bits);
        prop_assert!(a.activation_bits < b.activation_bits);
        prop_assert_eq!(a.weight_bits, b.weight_bits, "weights are depth-invariant");
        // The KvCache accounting agrees with itself across depths.
        let shallow = KvCache::new(cache, batch);
        let deep = KvCache::new(cache + deeper_by, batch);
        prop_assert!(
            shallow.read_bits_per_step(&cfg, Precision::int8())
                < deep.read_bits_per_step(&cfg, Precision::int8())
        );
    }

    /// Step-0 decode executes exactly the GEMM shapes of a seq-1
    /// prefill: an empty cache makes generation's first step and a
    /// one-token forward pass the same computation (the decode path
    /// additionally writes the first KV rows).
    #[test]
    fn step0_decode_matches_seq1_prefill_shapes(
        cfg in random_transformer(),
        batch in 1u32..8,
    ) {
        let gemms = |ops: &[lumos_xformer::XformerOp]| -> Vec<(KernelClass, u64, u64)> {
            ops.iter()
                .filter(|o| matches!(o.class, KernelClass::Gemm { .. }))
                .map(|o| (o.class, o.weight_elems, o.input_elems))
                .collect()
        };
        let d = decode_ops(&cfg, 0, batch);
        let p = transformer_ops(&cfg, 1, batch);
        prop_assert_eq!(gemms(&d), gemms(&p));
        // The KV write is the only decode-side extra with traffic.
        let kv_writes: u64 = d
            .iter()
            .filter(|o| o.kind == OpKind::KvWrite)
            .map(|o| o.output_elems)
            .sum();
        prop_assert_eq!(
            kv_writes,
            cfg.layers as u64 * KvCache::new(0, batch).write_elems_per_layer(&cfg) * batch as u64
        );
    }
}
