//! Figure 13 / Appendix A: the worst-case graph family (d independent chains
//! of c operators) whose transition count reaches the complexity bound.

use ios_bench::{maybe_write_json, render_table, BenchOptions};
use ios_core::{block_statistics, PruningLimits};
use ios_models::worst_case_chains;

fn main() {
    let opts = BenchOptions::from_args();
    let configs: &[(usize, usize)] = if opts.quick {
        &[(2, 3), (3, 3)]
    } else {
        &[(2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]
    };
    let mut rows = Vec::new();
    for &(d, c) in configs {
        let net = worst_case_chains(d, c, 1);
        let stats = block_statistics(&net.blocks[0].graph, PruningLimits::unpruned());
        let bound = stats.transition_bound;
        rows.push(vec![
            format!("d={d} c={c}"),
            stats.n.to_string(),
            stats.width.to_string(),
            format!("{bound:.0}"),
            stats.transitions.to_string(),
            format!("{:.3}", stats.transitions as f64 / bound),
            format!("{:.2e}", stats.num_schedules),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Figure 13: worst-case chain family vs the complexity bound",
            &[
                "config",
                "n",
                "d",
                "bound C(c+2,2)^d",
                "#(S,S')",
                "ratio",
                "#schedules"
            ],
            &rows
        )
    );
    println!("the explored transition count tracks the theoretical bound (the gap is the one empty-ending per state)");
    maybe_write_json(&opts, &rows);
}
