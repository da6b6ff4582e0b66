//! VGG-16 (Simonyan & Zisserman, 2015), configuration D.
//!
//! 13 convolution + 3 fully connected layers, 138,357,544 parameters —
//! the heavyweight of Table 2, dominated by the 102.8 M-parameter first
//! FC layer. All convolutions are 3×3 'same' with bias; no batch norm.

use crate::graph::Model;
use crate::layer::{Activation, Layer};
use crate::shape::{Padding, TensorShape};

/// Builds VGG-16: 138,357,544 parameters, 13 conv + 3 FC layers.
///
/// # Examples
///
/// ```
/// let m = lumos_dnn::zoo::vgg16();
/// assert_eq!(m.param_count(), 138_357_544);
/// ```
pub fn vgg16() -> Model {
    let mut m = Model::new("vgg16", TensorShape::chw(3, 224, 224));
    let blocks: &[(usize, u32)] = &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)];

    for (bi, &(convs, channels)) in blocks.iter().enumerate() {
        for ci in 0..convs {
            let name = format!("block{}_conv{}", bi + 1, ci + 1);
            let relu = format!("{name}_relu");
            m.push(name, Layer::conv(channels, 3, 1, Padding::Same))
                .expect("vgg16 graph is well-formed");
            m.push(relu, Layer::Activation(Activation::Relu))
                .expect("vgg16 graph is well-formed");
        }
        m.push(
            format!("block{}_pool", bi + 1),
            Layer::MaxPool {
                size: 2,
                stride: 2,
                padding: Padding::Valid,
            },
        )
        .expect("vgg16 graph is well-formed");
    }

    m.push("flatten", Layer::Flatten).expect("well-formed");
    m.push("fc1", Layer::dense(4096)).expect("well-formed");
    m.push("fc1_relu", Layer::Activation(Activation::Relu))
        .expect("well-formed");
    m.push("fc2", Layer::dense(4096)).expect("well-formed");
    m.push("fc2_relu", Layer::Activation(Activation::Relu))
        .expect("well-formed");
    m.push("predictions", Layer::dense(1000))
        .expect("well-formed");
    m.push("softmax", Layer::Activation(Activation::Softmax))
        .expect("well-formed");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_param_count() {
        assert_eq!(vgg16().param_count(), 138_357_544);
    }

    #[test]
    fn layer_counts() {
        let m = vgg16();
        assert_eq!(m.conv_layer_count(), 13);
        assert_eq!(m.fc_layer_count(), 3);
    }

    #[test]
    fn fc1_dominates() {
        let m = vgg16();
        let fc1 = m
            .nodes()
            .iter()
            .find(|n| n.name == "fc1")
            .expect("fc1 exists");
        assert_eq!(fc1.input_shape, TensorShape::vector(25_088));
        assert_eq!(fc1.layer.param_count(fc1.input_shape), 102_764_544);
    }

    #[test]
    fn feature_map_pyramid() {
        let m = vgg16();
        let pool5 = m
            .nodes()
            .iter()
            .find(|n| n.name == "block5_pool")
            .expect("pool5 exists");
        assert_eq!(pool5.output_shape, TensorShape::chw(512, 7, 7));
    }

    #[test]
    fn mac_count_about_15_5g() {
        let macs = vgg16().mac_count();
        assert!((macs as f64 - 15.47e9).abs() / 15.47e9 < 0.05, "{macs}");
    }
}
