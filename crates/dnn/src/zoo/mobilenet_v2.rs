//! MobileNetV2 (Sandler et al., 2018), width multiplier 1.0, Keras layout.
//!
//! 52 convolution layers (stem + 16 inverted-residual blocks + final 1×1)
//! counting depthwise convolutions, one FC classifier, 3,538,984 total
//! parameters. Every convolution is bias-free and followed by batch norm.

use crate::graph::{Model, NodeId};
use crate::layer::{Activation, Layer};
use crate::shape::{Padding, TensorShape};

/// Builds MobileNetV2: 3,538,984 parameters, 52 conv + 1 FC layers.
///
/// # Examples
///
/// ```
/// let m = lumos_dnn::zoo::mobilenet_v2();
/// assert_eq!(m.param_count(), 3_538_984);
/// ```
pub fn mobilenet_v2() -> Model {
    let mut m = Model::new("mobilenet_v2", TensorShape::chw(3, 224, 224));
    let ok = "mobilenet_v2 graph is well-formed";

    m.push("Conv1", Layer::conv_nb(32, 3, 2, Padding::Same))
        .expect(ok);
    m.push("bn_Conv1", Layer::BatchNorm).expect(ok);
    m.push("Conv1_relu", Layer::Activation(Activation::Relu6))
        .expect(ok);

    // (expansion t, output channels c, repeats n, first stride s)
    let config: &[(u32, u32, usize, u32)] = &[
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];

    let mut block_id = 0usize;
    for &(t, c, n, s) in config {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            inverted_residual(&mut m, block_id, t, c, stride);
            block_id += 1;
        }
    }

    m.push("Conv_1", Layer::conv_nb(1280, 1, 1, Padding::Valid))
        .expect(ok);
    m.push("Conv_1_bn", Layer::BatchNorm).expect(ok);
    m.push("out_relu", Layer::Activation(Activation::Relu6))
        .expect(ok);
    m.push("global_average_pooling2d", Layer::GlobalAvgPool)
        .expect(ok);
    m.push("predictions", Layer::dense(1000)).expect(ok);
    m.push("softmax", Layer::Activation(Activation::Softmax))
        .expect(ok);
    m
}

/// Appends one inverted-residual block: optional 1×1 expansion, 3×3
/// depthwise, 1×1 linear projection, with a residual Add when the block
/// is stride-1 and shape-preserving.
fn inverted_residual(m: &mut Model, id: usize, expansion: u32, out_channels: u32, stride: u32) {
    let ok = "mobilenet_v2 graph is well-formed";
    let input: NodeId = m.tail().expect("block needs a predecessor");
    let in_channels = m.output_shape_of(input).c;
    let b = format!("block_{id}");

    let mut x = input;
    if expansion != 1 {
        x = m
            .add_node(
                format!("{b}_expand"),
                Layer::conv_nb(in_channels * expansion, 1, 1, Padding::Valid),
                vec![x],
            )
            .expect(ok);
        x = m
            .add_node(format!("{b}_expand_bn"), Layer::BatchNorm, vec![x])
            .expect(ok);
        x = m
            .add_node(
                format!("{b}_expand_relu"),
                Layer::Activation(Activation::Relu6),
                vec![x],
            )
            .expect(ok);
    }

    x = m
        .add_node(
            format!("{b}_depthwise"),
            Layer::depthwise_nb(3, stride, Padding::Same),
            vec![x],
        )
        .expect(ok);
    x = m
        .add_node(format!("{b}_depthwise_bn"), Layer::BatchNorm, vec![x])
        .expect(ok);
    x = m
        .add_node(
            format!("{b}_depthwise_relu"),
            Layer::Activation(Activation::Relu6),
            vec![x],
        )
        .expect(ok);

    x = m
        .add_node(
            format!("{b}_project"),
            Layer::conv_nb(out_channels, 1, 1, Padding::Valid),
            vec![x],
        )
        .expect(ok);
    x = m
        .add_node(format!("{b}_project_bn"), Layer::BatchNorm, vec![x])
        .expect(ok);

    if stride == 1 && in_channels == out_channels {
        m.add_node(format!("{b}_add"), Layer::Add, vec![input, x])
            .expect(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_param_count() {
        assert_eq!(mobilenet_v2().param_count(), 3_538_984);
    }

    #[test]
    fn layer_counts() {
        let m = mobilenet_v2();
        assert_eq!(m.conv_layer_count(), 52);
        assert_eq!(m.fc_layer_count(), 1);
    }

    #[test]
    fn residual_blocks_present() {
        let m = mobilenet_v2();
        // Blocks 2,4,5,7..9,11,12,14,15 are stride-1 shape-preserving:
        // MobileNetV2 has 10 residual adds.
        let adds = m
            .nodes()
            .iter()
            .filter(|n| n.name.ends_with("_add"))
            .count();
        assert_eq!(adds, 10);
    }

    #[test]
    fn head_shapes() {
        let m = mobilenet_v2();
        let conv1 = m
            .nodes()
            .iter()
            .find(|n| n.name == "Conv_1")
            .expect("final conv exists");
        assert_eq!(conv1.input_shape, TensorShape::chw(320, 7, 7));
        assert_eq!(conv1.output_shape, TensorShape::chw(1280, 7, 7));
    }

    #[test]
    fn depthwise_layers_light() {
        let m = mobilenet_v2();
        let dw = m
            .nodes()
            .iter()
            .find(|n| n.name == "block_1_depthwise")
            .expect("depthwise exists");
        // 96 channels × 9 weights, no bias.
        assert_eq!(dw.layer.param_count(dw.input_shape), 864);
    }

    #[test]
    fn mac_count_about_0_3g() {
        let macs = mobilenet_v2().mac_count();
        assert!((macs as f64 - 0.31e9).abs() / 0.31e9 < 0.10, "{macs}");
    }
}
