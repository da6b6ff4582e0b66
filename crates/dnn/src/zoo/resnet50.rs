//! ResNet-50 (He et al., 2016), Keras `applications` layout.
//!
//! 53 convolution layers (1 stem + 48 bottleneck + 4 projection) and one
//! FC classifier; 25,636,712 total parameters including the 4-per-channel
//! batch-norm statistics. Strides follow the Keras v1 convention (the
//! first 1×1 of a downsampling bottleneck carries the stride).

use crate::graph::{Model, NodeId};
use crate::layer::{Activation, Layer};
use crate::shape::{Padding, TensorShape};

/// Builds ResNet-50: 25,636,712 parameters, 53 conv + 1 FC layers.
///
/// # Examples
///
/// ```
/// let m = lumos_dnn::zoo::resnet50();
/// assert_eq!(m.param_count(), 25_636_712);
/// ```
pub fn resnet50() -> Model {
    let mut m = Model::new("resnet50", TensorShape::chw(3, 224, 224));
    let ok = "resnet50 graph is well-formed";

    // Stem.
    m.push("conv1_pad", Layer::ZeroPad { amount: 3 }).expect(ok);
    m.push("conv1", Layer::conv(64, 7, 2, Padding::Valid))
        .expect(ok);
    m.push("conv1_bn", Layer::BatchNorm).expect(ok);
    m.push("conv1_relu", Layer::Activation(Activation::Relu))
        .expect(ok);
    m.push("pool1_pad", Layer::ZeroPad { amount: 1 }).expect(ok);
    m.push(
        "pool1",
        Layer::MaxPool {
            size: 3,
            stride: 2,
            padding: Padding::Valid,
        },
    )
    .expect(ok);

    // Bottleneck stages: (blocks, width, first-block stride).
    let stages: &[(usize, u32, u32)] = &[(3, 64, 1), (4, 128, 2), (6, 256, 2), (3, 512, 2)];
    for (si, &(blocks, width, first_stride)) in stages.iter().enumerate() {
        for bi in 0..blocks {
            let stride = if bi == 0 { first_stride } else { 1 };
            let project = bi == 0;
            bottleneck(
                &mut m,
                &format!("conv{}_{}", si + 2, bi + 1),
                width,
                stride,
                project,
            );
        }
    }

    m.push("avg_pool", Layer::GlobalAvgPool).expect(ok);
    m.push("predictions", Layer::dense(1000)).expect(ok);
    m.push("softmax", Layer::Activation(Activation::Softmax))
        .expect(ok);
    m
}

/// Appends one bottleneck block `1×1(w) → 3×3(w) → 1×1(4w)` with identity
/// or projection shortcut, returning nothing (tail advances to the block
/// output).
fn bottleneck(m: &mut Model, name: &str, width: u32, stride: u32, project: bool) {
    let ok = "resnet50 graph is well-formed";
    let input: NodeId = m.tail().expect("bottleneck needs a predecessor");

    let c1 = m
        .add_node(
            format!("{name}_1_conv"),
            Layer::conv(width, 1, stride, Padding::Valid),
            vec![input],
        )
        .expect(ok);
    let c1 = m
        .add_node(format!("{name}_1_bn"), Layer::BatchNorm, vec![c1])
        .expect(ok);
    let c1 = m
        .add_node(
            format!("{name}_1_relu"),
            Layer::Activation(Activation::Relu),
            vec![c1],
        )
        .expect(ok);

    let c2 = m
        .add_node(
            format!("{name}_2_conv"),
            Layer::conv(width, 3, 1, Padding::Same),
            vec![c1],
        )
        .expect(ok);
    let c2 = m
        .add_node(format!("{name}_2_bn"), Layer::BatchNorm, vec![c2])
        .expect(ok);
    let c2 = m
        .add_node(
            format!("{name}_2_relu"),
            Layer::Activation(Activation::Relu),
            vec![c2],
        )
        .expect(ok);

    let c3 = m
        .add_node(
            format!("{name}_3_conv"),
            Layer::conv(width * 4, 1, 1, Padding::Valid),
            vec![c2],
        )
        .expect(ok);
    let c3 = m
        .add_node(format!("{name}_3_bn"), Layer::BatchNorm, vec![c3])
        .expect(ok);

    let shortcut = if project {
        let p = m
            .add_node(
                format!("{name}_0_conv"),
                Layer::conv(width * 4, 1, stride, Padding::Valid),
                vec![input],
            )
            .expect(ok);
        m.add_node(format!("{name}_0_bn"), Layer::BatchNorm, vec![p])
            .expect(ok)
    } else {
        input
    };

    let sum = m
        .add_node(format!("{name}_add"), Layer::Add, vec![shortcut, c3])
        .expect(ok);
    m.add_node(
        format!("{name}_out"),
        Layer::Activation(Activation::Relu),
        vec![sum],
    )
    .expect(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_param_count() {
        assert_eq!(resnet50().param_count(), 25_636_712);
    }

    #[test]
    fn layer_counts() {
        let m = resnet50();
        assert_eq!(m.conv_layer_count(), 53);
        assert_eq!(m.fc_layer_count(), 1);
    }

    #[test]
    fn stage_output_shapes() {
        let m = resnet50();
        let shape_of = |name: &str| {
            m.nodes()
                .iter()
                .find(|n| n.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .output_shape
        };
        assert_eq!(shape_of("pool1"), TensorShape::chw(64, 56, 56));
        assert_eq!(shape_of("conv2_3_out"), TensorShape::chw(256, 56, 56));
        assert_eq!(shape_of("conv3_4_out"), TensorShape::chw(512, 28, 28));
        assert_eq!(shape_of("conv4_6_out"), TensorShape::chw(1024, 14, 14));
        assert_eq!(shape_of("conv5_3_out"), TensorShape::chw(2048, 7, 7));
    }

    #[test]
    fn classifier_params() {
        let m = resnet50();
        let fc = m
            .nodes()
            .iter()
            .find(|n| n.name == "predictions")
            .expect("classifier exists");
        assert_eq!(fc.layer.param_count(fc.input_shape), 2_049_000);
    }

    #[test]
    fn mac_count_about_3_9g() {
        let macs = resnet50().mac_count();
        assert!((macs as f64 - 3.87e9).abs() / 3.87e9 < 0.05, "{macs}");
    }
}
