//! DenseNet-121 (Huang et al., 2017), Keras `applications` layout.
//!
//! 120 convolution layers (1 stem + 58 dense layers × 2 convs + 3
//! transition convs) and one FC classifier; 8,062,504 total parameters
//! with growth rate 32 and compression 0.5. Every dense layer is
//! BN→ReLU→1×1(128)→BN→ReLU→3×3(32) concatenated onto its input.

use crate::graph::{Model, NodeId};
use crate::layer::{Activation, Layer};
use crate::shape::{Padding, TensorShape};

const GROWTH: u32 = 32;

/// Builds DenseNet-121: 8,062,504 parameters, 120 conv + 1 FC layers.
///
/// # Examples
///
/// ```
/// let m = lumos_dnn::zoo::densenet121();
/// assert_eq!(m.param_count(), 8_062_504);
/// ```
pub fn densenet121() -> Model {
    let mut m = Model::new("densenet121", TensorShape::chw(3, 224, 224));
    let ok = "densenet121 graph is well-formed";

    // Stem.
    m.push("zero_padding2d", Layer::ZeroPad { amount: 3 })
        .expect(ok);
    m.push("conv1/conv", Layer::conv_nb(64, 7, 2, Padding::Valid))
        .expect(ok);
    m.push("conv1/bn", Layer::BatchNorm).expect(ok);
    m.push("conv1/relu", Layer::Activation(Activation::Relu))
        .expect(ok);
    m.push("zero_padding2d_1", Layer::ZeroPad { amount: 1 })
        .expect(ok);
    m.push(
        "pool1",
        Layer::MaxPool {
            size: 3,
            stride: 2,
            padding: Padding::Valid,
        },
    )
    .expect(ok);

    let block_sizes: &[usize] = &[6, 12, 24, 16];
    for (bi, &layers) in block_sizes.iter().enumerate() {
        dense_block(&mut m, &format!("conv{}", bi + 2), layers);
        if bi + 1 < block_sizes.len() {
            transition(&mut m, &format!("pool{}", bi + 2));
        }
    }

    m.push("bn", Layer::BatchNorm).expect(ok);
    m.push("relu", Layer::Activation(Activation::Relu))
        .expect(ok);
    m.push("avg_pool", Layer::GlobalAvgPool).expect(ok);
    m.push("predictions", Layer::dense(1000)).expect(ok);
    m.push("softmax", Layer::Activation(Activation::Softmax))
        .expect(ok);
    m
}

/// Appends `layers` dense layers, each concatenating its 32-channel
/// output onto the running feature map.
fn dense_block(m: &mut Model, name: &str, layers: usize) {
    let ok = "densenet121 graph is well-formed";
    for li in 0..layers {
        let input: NodeId = m.tail().expect("dense block needs a predecessor");
        let b = format!("{name}_block{}", li + 1);

        let x = m
            .add_node(format!("{b}_0_bn"), Layer::BatchNorm, vec![input])
            .expect(ok);
        let x = m
            .add_node(
                format!("{b}_0_relu"),
                Layer::Activation(Activation::Relu),
                vec![x],
            )
            .expect(ok);
        let x = m
            .add_node(
                format!("{b}_1_conv"),
                Layer::conv_nb(4 * GROWTH, 1, 1, Padding::Valid),
                vec![x],
            )
            .expect(ok);
        let x = m
            .add_node(format!("{b}_1_bn"), Layer::BatchNorm, vec![x])
            .expect(ok);
        let x = m
            .add_node(
                format!("{b}_1_relu"),
                Layer::Activation(Activation::Relu),
                vec![x],
            )
            .expect(ok);
        let x = m
            .add_node(
                format!("{b}_2_conv"),
                Layer::conv_nb(GROWTH, 3, 1, Padding::Same),
                vec![x],
            )
            .expect(ok);
        m.add_node(format!("{b}_concat"), Layer::Concat, vec![input, x])
            .expect(ok);
    }
}

/// Appends a transition: BN→ReLU→1×1(C/2)→AvgPool2/2.
fn transition(m: &mut Model, name: &str) {
    let ok = "densenet121 graph is well-formed";
    let input = m.tail().expect("transition needs a predecessor");
    let channels = m.output_shape_of(input).c;
    let x = m
        .add_node(format!("{name}_bn"), Layer::BatchNorm, vec![input])
        .expect(ok);
    let x = m
        .add_node(
            format!("{name}_relu"),
            Layer::Activation(Activation::Relu),
            vec![x],
        )
        .expect(ok);
    let x = m
        .add_node(
            format!("{name}_conv"),
            Layer::conv_nb(channels / 2, 1, 1, Padding::Valid),
            vec![x],
        )
        .expect(ok);
    m.add_node(
        format!("{name}_pool"),
        Layer::AvgPool {
            size: 2,
            stride: 2,
            padding: Padding::Valid,
        },
        vec![x],
    )
    .expect(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_param_count() {
        assert_eq!(densenet121().param_count(), 8_062_504);
    }

    #[test]
    fn layer_counts() {
        let m = densenet121();
        assert_eq!(m.conv_layer_count(), 120);
        assert_eq!(m.fc_layer_count(), 1);
    }

    #[test]
    fn channel_growth_per_block() {
        let m = densenet121();
        let shape_of = |name: &str| {
            m.nodes()
                .iter()
                .find(|n| n.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .output_shape
        };
        // Block outputs before transitions: 64+6·32=256, 128+12·32=512,
        // 256+24·32=1024, 512+16·32=1024.
        assert_eq!(shape_of("conv2_block6_concat").c, 256);
        assert_eq!(shape_of("conv3_block12_concat").c, 512);
        assert_eq!(shape_of("conv4_block24_concat").c, 1024);
        assert_eq!(shape_of("conv5_block16_concat").c, 1024);
        // Spatial pyramid.
        assert_eq!(
            shape_of("conv2_block6_concat"),
            TensorShape::chw(256, 56, 56)
        );
        assert_eq!(
            shape_of("conv5_block16_concat"),
            TensorShape::chw(1024, 7, 7)
        );
    }

    #[test]
    fn transitions_halve_channels() {
        let m = densenet121();
        let t1 = m
            .nodes()
            .iter()
            .find(|n| n.name == "pool2_conv")
            .expect("transition conv exists");
        assert_eq!(t1.output_shape.c, 128);
    }

    #[test]
    fn mac_count_about_2_9g() {
        let macs = densenet121().mac_count();
        assert!((macs as f64 - 2.87e9).abs() / 2.87e9 < 0.07, "{macs}");
    }
}
