//! Property-based tests for shape inference, workload extraction, and
//! quantization invariants.

use lumos_dnn::quantization::{QuantPolicy, QuantizationScheme};
use lumos_dnn::workload::{extract_workloads, totals, Precision};
use lumos_dnn::{conv_out, Layer, Model, Padding, TensorShape};
use proptest::prelude::*;

/// Strategy: a random small sequential CNN that always shape-checks.
fn random_cnn() -> impl Strategy<Value = Model> {
    let conv = (1u32..=2, prop::sample::select(vec![1u32, 3, 5]), 2u32..16);
    (
        8u32..=32,
        1u32..=4,
        proptest::collection::vec(conv, 1..4),
        2u32..32,
    )
        .prop_map(|(hw, c, convs, classes)| {
            let mut m = Model::new("prop_cnn", TensorShape::chw(c, hw, hw));
            for (i, (stride, k, out_c)) in convs.into_iter().enumerate() {
                let cur = m
                    .tail()
                    .map(|t| m.output_shape_of(t))
                    .unwrap_or(m.input_shape());
                let stride = if cur.h / stride >= 4 { stride } else { 1 };
                m.push(
                    format!("conv{i}"),
                    Layer::conv(out_c, k, stride, Padding::Same),
                )
                .expect("same-padded conv always fits");
            }
            m.push("gap", Layer::GlobalAvgPool).expect("valid");
            m.push("fc", Layer::dense(classes)).expect("valid");
            m
        })
}

proptest! {
    /// Same-padded convolutions shrink exactly by the stride (ceiling
    /// division), and stride 1 preserves spatial size.
    #[test]
    fn conv_out_same_padding_is_ceil_div(
        input in 1u32..256,
        kernel in prop::sample::select(vec![1u32, 3, 5, 7]),
        stride in 1u32..4,
    ) {
        let out = conv_out(input, kernel, stride, Padding::Same);
        prop_assert_eq!(out, input.div_ceil(stride));
        prop_assert_eq!(conv_out(input, kernel, 1, Padding::Same), input);
    }

    /// Valid padding never yields a larger map than same padding, and
    /// both shrink monotonically in stride.
    #[test]
    fn conv_out_orderings(
        input in 8u32..128,
        kernel in prop::sample::select(vec![1u32, 3, 5, 7]),
        stride in 1u32..4,
    ) {
        let same = conv_out(input, kernel, stride, Padding::Same);
        let valid = conv_out(input, kernel, stride, Padding::Valid);
        prop_assert!(valid <= same);
        let slower = conv_out(input, kernel, stride + 1, Padding::Same);
        prop_assert!(slower <= same);
    }

    /// Workload extraction conserves MACs and parameters: per-layer sums
    /// match the graph-level counters, and `totals` matches the slice.
    #[test]
    fn workloads_conserve_graph_counters(model in random_cnn()) {
        let work = extract_workloads(&model, Precision::int8());
        prop_assert_eq!(work.len(), model.conv_layer_count() + model.fc_layer_count());
        let macs: u64 = work.iter().map(|w| w.macs).sum();
        prop_assert_eq!(macs, model.mac_count());
        let t = totals(&work);
        prop_assert_eq!(t.macs, macs);
        let bits: u64 = work.iter().map(|w| w.total_bits()).sum();
        prop_assert_eq!(t.total_bits, bits);
        prop_assert_eq!(t.weight_bits + t.activation_bits, bits);
    }

    /// Doubling precision exactly doubles every traffic component and
    /// leaves compute (MACs, passes) untouched.
    #[test]
    fn precision_scales_traffic_only(model in random_cnn()) {
        let w8 = extract_workloads(&model, Precision::int8());
        let w16 = extract_workloads(&model, Precision::int16());
        prop_assert_eq!(w8.len(), w16.len());
        for (a, b) in w8.iter().zip(&w16) {
            prop_assert_eq!(2 * a.weight_bits, b.weight_bits);
            prop_assert_eq!(2 * a.input_bits, b.input_bits);
            prop_assert_eq!(2 * a.output_bits, b.output_bits);
            prop_assert_eq!(a.macs, b.macs);
            prop_assert_eq!(a.passes_on(16), b.passes_on(16));
        }
    }

    /// MAC passes are monotone non-increasing in lane count.
    #[test]
    fn passes_monotone_in_lanes(model in random_cnn(), lanes in 1u64..64) {
        for w in extract_workloads(&model, Precision::int8()) {
            prop_assert!(w.passes_on(lanes + 1) <= w.passes_on(lanes));
            // One lane is the serial upper bound.
            prop_assert!(w.passes_on(lanes) <= w.passes_on(1));
        }
    }

    /// Quantization schemes assign one width per weighted layer; uniform
    /// policy means a constant assignment, and every mixed policy stays
    /// within its declared bounds.
    #[test]
    fn quantization_bounds(model in random_cnn(), bits in 2u32..16) {
        let uniform = QuantizationScheme::assign(&model, QuantPolicy::Uniform { bits });
        let weighted = model.conv_layer_count() + model.fc_layer_count();
        prop_assert_eq!(uniform.layer_bits.len(), weighted);
        prop_assert!(uniform.layer_bits.iter().all(|&b| b == bits));
        prop_assert!((uniform.mean_weight_bits(&model) - bits as f64).abs() < 1e-9);

        let mixed = QuantizationScheme::assign(
            &model,
            QuantPolicy::TrafficAware { max_bits: 16, min_bits: 4 },
        );
        prop_assert!(mixed.layer_bits.iter().all(|&b| (4..=16).contains(&b)));
    }
}
