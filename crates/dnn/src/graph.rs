//! DNN models as directed acyclic graphs of layers.

use std::fmt;

use crate::layer::Layer;
use crate::shape::TensorShape;

/// Identifier of a node inside a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Index into [`Model::nodes`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One placed layer: the layer, its fan-in, and its inferred shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Graph-unique name (useful in reports).
    pub name: String,
    /// The layer.
    pub layer: Layer,
    /// Input nodes (empty only for the implicit input).
    pub inputs: Vec<NodeId>,
    /// Inferred input shape (after Add/Concat merging).
    pub input_shape: TensorShape,
    /// Inferred output shape.
    pub output_shape: TensorShape,
}

/// Errors from model construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An input `NodeId` does not exist yet (would create a cycle or
    /// dangling edge).
    UnknownInput {
        /// Offending node name.
        node: String,
    },
    /// `Add` inputs disagree on shape.
    AddShapeMismatch {
        /// Offending node name.
        node: String,
    },
    /// `Concat` inputs disagree on spatial dims.
    ConcatShapeMismatch {
        /// Offending node name.
        node: String,
    },
    /// A merge layer was given fewer than two inputs, or a normal layer a
    /// fan-in other than one.
    BadFanIn {
        /// Offending node name.
        node: String,
        /// Number of inputs supplied.
        got: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownInput { node } => {
                write!(f, "node '{node}' references unknown input")
            }
            ModelError::AddShapeMismatch { node } => {
                write!(f, "add node '{node}' has mismatched input shapes")
            }
            ModelError::ConcatShapeMismatch { node } => {
                write!(f, "concat node '{node}' has mismatched spatial dims")
            }
            ModelError::BadFanIn { node, got } => {
                write!(f, "node '{node}' has invalid fan-in {got}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A DNN model: a named DAG of layers with inferred shapes.
///
/// Nodes are appended in topological order by construction (inputs must
/// already exist), so iteration order is always a valid execution order.
///
/// # Examples
///
/// ```
/// use lumos_dnn::graph::Model;
/// use lumos_dnn::layer::Layer;
/// use lumos_dnn::shape::{Padding, TensorShape};
///
/// let mut m = Model::new("tiny", TensorShape::chw(3, 32, 32));
/// let c = m.push("conv1", Layer::conv(8, 3, 1, Padding::Same))?;
/// let _ = m.push("flatten", Layer::Flatten)?;
/// let _ = m.push("fc", Layer::dense(10))?;
/// assert_eq!(m.param_count(), 3*3*3*8 + 8 + 8*32*32*10 + 10);
/// # let _ = c;
/// # Ok::<(), lumos_dnn::graph::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    input_shape: TensorShape,
    nodes: Vec<Node>,
    /// The most recently appended node, used by [`Model::push`].
    tail: Option<NodeId>,
}

impl Model {
    /// Creates an empty model with the given input shape.
    pub fn new(name: &str, input_shape: TensorShape) -> Self {
        Model {
            name: name.to_owned(),
            input_shape,
            nodes: Vec::new(),
            tail: None,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input tensor shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// All nodes in topological (execution) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node most recently appended.
    pub fn tail(&self) -> Option<NodeId> {
        self.tail
    }

    /// Shape produced by `id`.
    pub fn output_shape_of(&self, id: NodeId) -> TensorShape {
        self.nodes[id.0].output_shape
    }

    /// Appends a layer fed by the current tail (or the model input when
    /// the graph is empty). Sequential-model convenience.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Model::add_node`].
    pub fn push(&mut self, name: impl Into<String>, layer: Layer) -> Result<NodeId, ModelError> {
        let inputs = self.tail.map(|t| vec![t]).unwrap_or_default();
        self.add_node(name, layer, inputs)
    }

    /// Appends a layer with explicit fan-in.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownInput`] if any input id is out of range.
    /// * [`ModelError::BadFanIn`] if the fan-in does not fit the layer
    ///   (merge layers need ≥ 2 inputs, others exactly 1 — or 0 for the
    ///   first node, which implicitly reads the model input).
    /// * [`ModelError::AddShapeMismatch`] / [`ModelError::ConcatShapeMismatch`]
    ///   when merge inputs disagree.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, ModelError> {
        let name = name.into();
        for &i in &inputs {
            if i.0 >= self.nodes.len() {
                return Err(ModelError::UnknownInput { node: name });
            }
        }

        let is_merge = matches!(layer, Layer::Add | Layer::Concat);
        let input_shape = if is_merge {
            if inputs.len() < 2 {
                return Err(ModelError::BadFanIn {
                    node: name,
                    got: inputs.len(),
                });
            }
            let shapes: Vec<TensorShape> = inputs
                .iter()
                .map(|&i| self.nodes[i.0].output_shape)
                .collect();
            match layer {
                Layer::Add => {
                    if shapes.windows(2).any(|w| w[0] != w[1]) {
                        return Err(ModelError::AddShapeMismatch { node: name });
                    }
                    shapes[0]
                }
                Layer::Concat => {
                    if shapes
                        .windows(2)
                        .any(|w| w[0].h != w[1].h || w[0].w != w[1].w)
                    {
                        return Err(ModelError::ConcatShapeMismatch { node: name });
                    }
                    let c: u32 = shapes.iter().map(|s| s.c).sum();
                    TensorShape::chw(c, shapes[0].h, shapes[0].w)
                }
                _ => unreachable!(),
            }
        } else {
            match inputs.len() {
                0 => self.input_shape,
                1 => self.nodes[inputs[0].0].output_shape,
                got => return Err(ModelError::BadFanIn { node: name, got }),
            }
        };

        let output_shape = if is_merge {
            input_shape
        } else {
            layer.output_shape(input_shape)
        };

        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name,
            layer,
            inputs,
            input_shape,
            output_shape,
        });
        self.tail = Some(id);
        Ok(id)
    }

    /// Total parameter count (Keras "total params" convention).
    pub fn param_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.layer.param_count(n.input_shape))
            .sum()
    }

    /// Total multiply-accumulate count for one inference.
    pub fn mac_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.layer.mac_count(n.input_shape))
            .sum()
    }

    /// Number of convolution layers (dense + depthwise), Table 2's
    /// "CONV layers" column.
    pub fn conv_layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.layer, Layer::Conv2d { .. }))
            .count()
    }

    /// Number of fully connected layers, Table 2's "FC layers" column.
    pub fn fc_layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.layer, Layer::Dense { .. }))
            .count()
    }

    /// Iterates over the weighted (Conv/Dense) nodes in execution order.
    pub fn weighted_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.layer.is_weighted())
    }

    /// A one-line summary: `name: params=…, macs=…, conv=…, fc=…`.
    pub fn summary(&self) -> String {
        format!(
            "{}: params={} macs={} conv={} fc={}",
            self.name,
            self.param_count(),
            self.mac_count(),
            self.conv_layer_count(),
            self.fc_layer_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Padding;

    fn base() -> Model {
        Model::new("t", TensorShape::chw(3, 8, 8))
    }

    #[test]
    fn sequential_push_chains_shapes() {
        let mut m = base();
        m.push("c1", Layer::conv(4, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        m.push(
            "p",
            Layer::MaxPool {
                size: 2,
                stride: 2,
                padding: Padding::Valid,
            },
        )
        .expect("2x2 pool divides the 8x8 feature map");
        m.push("f", Layer::Flatten)
            .expect("flatten accepts any shape");
        let id = m
            .push("d", Layer::dense(10))
            .expect("dense accepts a flattened vector");
        assert_eq!(m.output_shape_of(id), TensorShape::vector(10));
        assert_eq!(m.nodes().len(), 4);
    }

    #[test]
    fn residual_add_checks_shapes() {
        let mut m = base();
        let a = m
            .push("c1", Layer::conv_nb(8, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        let b = m
            .add_node("c2", Layer::conv_nb(8, 3, 1, Padding::Same), vec![a])
            .expect("branch conv matches the residual shape");
        let s = m
            .add_node("add", Layer::Add, vec![a, b])
            .expect("matching shapes must merge");
        assert_eq!(m.output_shape_of(s), TensorShape::chw(8, 8, 8));
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let mut m = base();
        let a = m
            .push("c1", Layer::conv_nb(8, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        let b = m
            .add_node("c2", Layer::conv_nb(4, 3, 1, Padding::Same), vec![a])
            .expect("narrower branch conv is itself valid");
        let err = m.add_node("add", Layer::Add, vec![a, b]).unwrap_err();
        assert_eq!(err, ModelError::AddShapeMismatch { node: "add".into() });
    }

    #[test]
    fn concat_sums_channels() {
        let mut m = base();
        let a = m
            .push("c1", Layer::conv_nb(8, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        let b = m
            .add_node("c2", Layer::conv_nb(4, 3, 1, Padding::Same), vec![a])
            .expect("branch conv keeps the spatial shape");
        let cat = m
            .add_node("cat", Layer::Concat, vec![a, b])
            .expect("same spatial shapes must concatenate");
        assert_eq!(m.output_shape_of(cat), TensorShape::chw(12, 8, 8));
    }

    #[test]
    fn merge_needs_two_inputs() {
        let mut m = base();
        let a = m
            .push("c1", Layer::conv_nb(8, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        let err = m.add_node("add", Layer::Add, vec![a]).unwrap_err();
        assert!(matches!(err, ModelError::BadFanIn { got: 1, .. }));
    }

    #[test]
    fn unknown_input_rejected() {
        let mut m = base();
        let err = m
            .add_node("c", Layer::conv(4, 3, 1, Padding::Same), vec![NodeId(7)])
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownInput { .. }));
        assert!(err.to_string().contains("unknown input"));
    }

    #[test]
    fn counting_layers() {
        let mut m = base();
        m.push("c1", Layer::conv(4, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        m.push("bn", Layer::BatchNorm)
            .expect("batch norm preserves any shape");
        m.push("dw", Layer::depthwise_nb(3, 1, Padding::Same))
            .expect("same-padded depthwise fits the feature map");
        m.push("f", Layer::Flatten)
            .expect("flatten accepts any shape");
        m.push("d", Layer::dense(10))
            .expect("dense accepts a flattened vector");
        assert_eq!(m.conv_layer_count(), 2);
        assert_eq!(m.fc_layer_count(), 1);
        assert_eq!(m.weighted_nodes().count(), 3);
    }

    #[test]
    fn summary_mentions_name() {
        let mut m = base();
        m.push("c1", Layer::conv(4, 3, 1, Padding::Same))
            .expect("same-padded conv fits the 8x8 input");
        assert!(m.summary().starts_with("t: params="));
    }
}
