//! A tour of the paper's §3: weights, numbers, ranges, fold and unfold,
//! culminating at Ta056 scale where node numbers need 215-bit integers.
//!
//! ```sh
//! cargo run --release --example coding_tour
//! ```

use gridbnb::bigint::UBig;
use gridbnb::coding::{fold, unfold, Interval, NodePath, TreeShape};
use gridbnb::flowshop::taillard::{ta056, TA056_OPTIMAL_SCHEDULE};
use gridbnb::flowshop::FlowshopProblem;

fn main() {
    // ---- Figures 1-3: weights, numbers, ranges on a small permutation tree.
    let shape = TreeShape::permutation(4);
    println!(
        "permutation tree over 4 elements ({} leaves)",
        shape.total_leaves()
    );
    for depth in 0..=4 {
        println!("  depth {depth}: weight {}", shape.weight_at(depth));
    }
    let node = NodePath::from_ranks(vec![2, 1]);
    println!(
        "node {node}: number {}, range {}",
        node.number(&shape),
        node.range(&shape)
    );

    // ---- Figure 4: fold an active list, unfold an interval.
    let frontier = vec![
        NodePath::from_ranks(vec![0, 2]),
        NodePath::from_ranks(vec![1]),
        NodePath::from_ranks(vec![2]),
    ];
    let interval = fold(&shape, &frontier).expect("contiguous DFS frontier");
    println!(
        "\nfold({:?}) = {}",
        frontier.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
        interval
    );
    let recovered = unfold(&shape, &interval);
    println!(
        "unfold({interval}) = {:?}",
        recovered.iter().map(|n| n.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(recovered, frontier);

    // ---- Ta056 scale: the whole search space as one interval.
    let ta056_shape = TreeShape::permutation(50);
    println!(
        "\nTa056 search space: 50! = {} leaves ({} bits)",
        ta056_shape.total_leaves(),
        ta056_shape.total_leaves().bit_len()
    );
    let root = ta056_shape.root_range();
    println!(
        "root work unit: {} — {} bytes on the wire",
        root,
        root.byte_len()
    );

    // Where does the paper's published optimal schedule live in the tree?
    let problem = FlowshopProblem::with_default_bound(ta056());
    let ranks = problem.encode_schedule(&TA056_OPTIMAL_SCHEDULE);
    let leaf = NodePath::from_ranks(ranks);
    println!(
        "the optimal schedule is leaf number\n  {}\nof the Ta056 permutation tree",
        leaf.number(&ta056_shape)
    );

    // A mid-run checkpoint: a millionth of the space, encoded two ways.
    let begin = ta056_shape.total_leaves().div_rem_u64(3).0;
    let end = &begin + &ta056_shape.total_leaves().div_rem_u64(1_000_000).0;
    let unit = Interval::new(begin, end.clone());
    let nodes = unfold(&ta056_shape, &unit);
    let node_list_bytes: usize = nodes.len() * 50; // ≥ one rank byte per depth per node
    println!(
        "\na 50!-scale work unit: interval = {} bytes, equivalent node list = {} nodes ≈ {} bytes",
        unit.byte_len(),
        nodes.len(),
        node_list_bytes
    );
    assert!(UBig::from(unit.byte_len()) < UBig::from(node_list_bytes));
}
