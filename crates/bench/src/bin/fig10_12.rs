//! Figs. 10–12 — breakdown of the orthogonalization time (dot-product GEMMs
//! with their global reduces, vector-update GEMMs/TRSM, small replicated
//! work) for BCGS2 with CholQR2, BCGS-PIP2 and the two-stage scheme, as a
//! function of the node count, for the 2D Laplace problem of Table III.
//!
//! Both absolute seconds and the fraction of the orthogonalization time are
//! printed, mirroring the paired (a)/(b) panels of the paper's figures.

use bench::{print_table, secs};
use perfmodel::{ortho_cycle_cost, KernelCosts, MachineModel, SchemeKind};

fn main() {
    let args = bench::cli::begin("fig10_12", false);
    let machine = MachineModel::summit_node();
    let m = 60;
    let s = 5;
    let n_global = 2000usize * 2000;
    let schemes = [
        (
            "Fig. 10: BCGS2 with CholQR2",
            SchemeKind::Bcgs2CholQr2,
            60_255usize,
        ),
        ("Fig. 11: BCGS-PIP2", SchemeKind::BcgsPip2, 60_255),
        (
            "Fig. 12: Two-stage (bs=m)",
            SchemeKind::TwoStage { bs: 60 },
            60_300,
        ),
    ];
    for (title, scheme, iters) in schemes {
        let mut rows = Vec::new();
        for nodes in [1usize, 2, 4, 8, 16, 32] {
            let nranks = nodes * machine.gpus_per_node;
            let costs = KernelCosts::new(&machine, n_global / nranks, nranks);
            let cycle = ortho_cycle_cost(scheme, &costs, m, s);
            let cycles = iters as f64 / m as f64;
            let total = cycle.total() * cycles;
            let dot = cycle.dot_products * cycles;
            let upd = cycle.vector_updates * cycles;
            let red = cycle.allreduce * cycles;
            let small = cycle.small_work * cycles;
            rows.push(vec![
                format!("{nodes}"),
                secs(dot),
                secs(upd),
                secs(red),
                secs(small),
                secs(total),
                format!("{:.0}%", 100.0 * dot / total),
                format!("{:.0}%", 100.0 * upd / total),
                format!("{:.0}%", 100.0 * red / total),
            ]);
        }
        print_table(
            &format!("{title} — orthogonalization time breakdown (2D Laplace n = 2000^2, modeled)"),
            &[
                "nodes",
                "dot-products (s)",
                "vector-updates (s)",
                "all-reduce (s)",
                "small work (s)",
                "total (s)",
                "dot %",
                "update %",
                "reduce %",
            ],
            &rows,
        );
    }
    println!(
        "\nExpected shape (paper Figs. 10-12): for BCGS2 the global reduces (dot-products)\n\
         dominate at scale; BCGS-PIP2 removes most of them; the two-stage scheme further\n\
         shrinks both the reduce time and the update time (larger blocks, fewer launches)."
    );
    args.finish();
}
