//! Shape-correct random blocks of at most eight operators, for tests that
//! check a property over the whole schedule space of a graph.
//!
//! Every operator keeps the input's spatial size (stride 1, "same"
//! padding), so any two values can be concatenated and any two of equal
//! channel count added. The operators drawn:
//!
//! * convolutions with 1×1, 3×3, 1×3 and 3×1 kernels;
//! * a *sibling* convolution: a convolution on the input of the last one,
//!   so that operator merges arise;
//! * separable convolutions (ReLU, depthwise 3×3 or 5×5, pointwise 1×1);
//! * 3×3 max and average pooling, add, concat and ReLU.
//!
//! The generator depends only on `ios_ir` and the `proptest` stand-in's
//! [`TestRng`], so suites of other crates can include this file with
//! `#[path]`. A graph is a pure function of its seed: a failing seed
//! rebuilds the graph that failed.

use ios_ir::{Conv2dParams, Graph, GraphBuilder, PoolParams, TensorShape, Value};
use proptest::test_runner::TestRng;

/// The largest block [`random_dag`] builds.
pub const MAX_OPS: usize = 8;

/// A uniform draw from `0..n`.
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A random block of 1 to [`MAX_OPS`] operators, named after its seed. Its
/// outputs are the operators no other operator reads.
#[must_use]
pub fn random_dag(seed: u64) -> Graph {
    random_dag_of(seed, MAX_OPS)
}

/// A random block of 1 to `max_ops` operators, drawn as [`random_dag`]
/// draws its blocks.
#[must_use]
pub fn random_dag_of(seed: u64, max_ops: usize) -> Graph {
    const KERNELS: [(usize, usize); 4] = [(1, 1), (3, 3), (1, 3), (3, 1)];
    const CHANNELS: [usize; 3] = [4, 8, 16];
    let mut rng = TestRng::deterministic(seed);
    let side = [6, 8, 12][below(&mut rng, 3)];
    let input = TensorShape::new(1, CHANNELS[below(&mut rng, 3)], side, side);
    let mut b = GraphBuilder::new(format!("random_dag_{seed:016x}"), input);
    let mut values = vec![b.input(0)];
    let mut read = vec![false];
    let mut last_conv_input: Option<usize> = None;
    let ops = 1 + below(&mut rng, max_ops);
    for i in 0..ops {
        let name = format!("op{i}");
        let pick = below(&mut rng, values.len());
        let (value, sources) = match below(&mut rng, 10) {
            kind @ (0..=2) => {
                // A sibling reads the last convolution's input; a plain
                // convolution reads any value.
                let source = match last_conv_input {
                    Some(source) if kind == 0 => source,
                    _ => pick,
                };
                last_conv_input = Some(source);
                let kernel = KERNELS[below(&mut rng, KERNELS.len())];
                let params = Conv2dParams::relu(
                    CHANNELS[below(&mut rng, 3)],
                    kernel,
                    (1, 1),
                    Conv2dParams::same_padding(kernel),
                );
                (b.conv2d(name, values[source], params), vec![source])
            }
            3 => {
                let params = if below(&mut rng, 2) == 0 {
                    PoolParams::max((3, 3), (1, 1), (1, 1))
                } else {
                    PoolParams::avg((3, 3), (1, 1), (1, 1))
                };
                (b.pool(name, values[pick], params), vec![pick])
            }
            4 | 5 => {
                let other = below(&mut rng, values.len());
                (
                    b.concat(name, &[values[pick], values[other]]),
                    vec![pick, other],
                )
            }
            6 | 7 => {
                // Add needs an equal shape; without one, a ReLU instead.
                let channels = b.shape_of(values[pick]).channels;
                let partners: Vec<usize> = (0..values.len())
                    .filter(|&v| v != pick && b.shape_of(values[v]).channels == channels)
                    .collect();
                if partners.is_empty() {
                    (b.relu(name, values[pick]), vec![pick])
                } else {
                    let other = partners[below(&mut rng, partners.len())];
                    (
                        b.add_op(name, &[values[pick], values[other]]),
                        vec![pick, other],
                    )
                }
            }
            8 => {
                let kernel = [(3, 3), (5, 5)][below(&mut rng, 2)];
                let params = Conv2dParams::plain(
                    CHANNELS[below(&mut rng, 3)],
                    kernel,
                    (1, 1),
                    Conv2dParams::same_padding(kernel),
                );
                (b.sep_conv2d(name, values[pick], params), vec![pick])
            }
            _ => (b.relu(name, values[pick]), vec![pick]),
        };
        for source in sources {
            read[source] = true;
        }
        values.push(value);
        read.push(false);
    }
    let outputs: Vec<Value> = values
        .iter()
        .zip(&read)
        .skip(1)
        .filter(|(_, &read)| !read)
        .map(|(&value, _)| value)
        .collect();
    b.build(outputs)
}
