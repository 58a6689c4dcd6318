//! Query P from the paper's introduction: detect when sensors in opposite
//! regions of a mesh diverge — the perimeter join (Table 2's Query 2) —
//! and compare every join strategy on it.
//!
//! ```sh
//! cargo run --release --example perimeter_monitoring
//! ```

use aspen::join::prelude::*;
use aspen::join::Algorithm;
use aspen::workload::{query2, WorkloadData};

fn main() {
    let topo = aspen::net::random_with_degree(100, 7.0, 9);
    let rates = Rates::new(2, 2, 10); // sigma_s = sigma_t = 1/2, sigma_st = 10%
    let spec = query2(1);
    println!(
        "Query P: row-0 sensors join row-3 sensors in the same column band\n\
         ({} nodes, w = 1, sigma_st = 10%, 150 sampling cycles)\n",
        topo.len()
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "strategy", "init KB", "exec KB", "total KB", "base KB", "results"
    );
    for (algo, opts) in [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Yang07, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CM),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
    ] {
        let data = WorkloadData::new(&topo, Schedule::Uniform(rates), 9);
        let sim = SimConfig::default();
        let mut session = Session::builder(topo.clone(), data)
            .sim(sim)
            .query(
                spec.clone(),
                AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.1)).with_innet_options(opts),
            )
            .build();
        session.step(150);
        let st = session.report();
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>9.1} {:>8}",
            st.per_query[0].label,
            st.initiation.total_tx_bytes() as f64 / 1024.0,
            st.execution.total_tx_bytes() as f64 / 1024.0,
            st.total_traffic_bytes() as f64 / 1024.0,
            st.base_load_bytes() as f64 / 1024.0,
            st.results_total()
        );
    }
    println!("\nFor perimeter joins the paper finds Innet best across the board\n(Fig 3); Yang+07 suffers at the base, GHT from locality-blind homes.");
}
