//! Table 1: schedule-space statistics for the largest block of each
//! benchmark network (operator count, width, transition bound, real
//! transitions and number of feasible schedules).

use ios_bench::{maybe_write_json, render_table, BenchOptions};
use ios_core::{block_statistics, PruningLimits};

fn main() {
    let opts = BenchOptions::from_args();
    let networks = opts.benchmark_networks();
    let mut rows = Vec::new();
    let mut stats_out = Vec::new();
    for net in &networks {
        let (idx, _) = net.largest_block().expect("non-empty network");
        let graph = &net.blocks[idx].graph;
        // Quick mode counts under the paper's pruning (r = 3, s = 8); the
        // full run reproduces the unpruned counts of Table 1.
        let pruning = if opts.quick {
            PruningLimits::paper_default()
        } else {
            PruningLimits::unpruned()
        };
        let stats = block_statistics(graph, pruning);
        rows.push(vec![
            net.name.clone(),
            stats.n.to_string(),
            stats.width.to_string(),
            format!("{:.1e}", stats.transition_bound),
            format!("{:.2e}", stats.transitions as f64),
            format!("{:.1e}", stats.num_schedules),
        ]);
        stats_out.push(stats);
    }
    println!(
        "{}",
        render_table(
            "Table 1: largest-block schedule-space statistics",
            &["network", "n", "d", "bound", "#(S,S')", "#schedules"],
            &rows
        )
    );
    println!("paper: Inception n=11 d=6 #(S,S')=4.9e3; RandWire n=33 d=8 1.2e6; NasNet n=18 d=8 3.1e5; SqueezeNet n=6 d=3 51");
    maybe_write_json(&opts, &stats_out);
}
