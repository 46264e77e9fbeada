//! Pure-analysis capacity planning with the paper's two queueing models —
//! no simulation, instant answers (§4.1–4.2).
//!
//! Question 1 (throughput): "my database is striped over d disks; how many
//! concurrent transactions do I need to keep throughput within 5% of max?"
//! → closed-network MVA (Fig. 7).
//!
//! Question 2 (response time): "my transaction demands have C² = 15 and
//! the system runs at 90% load; how low can the MPL go before mean
//! response time departs from processor sharing?" → flexible multiserver
//! queue (Fig. 10).
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use extsched::queueing::{mg1, recommend, FlexServer, ThroughputModel, H2};

fn main() {
    println!("== throughput bound (closed MVA model) ==");
    println!(
        "{:>6}  {:>12}  {:>12}",
        "disks", "MPL for 80%", "MPL for 95%"
    );
    for disks in [1usize, 2, 4, 8, 16] {
        let model = ThroughputModel::balanced(disks);
        println!(
            "{:>6}  {:>12}  {:>12}",
            disks,
            recommend::min_mpl_for_throughput(&model, 0.80),
            recommend::min_mpl_for_throughput(&model, 0.95)
        );
    }

    println!("\n== response-time bound (flexible multiserver queue) ==");
    let mean = 0.1; // 100 ms mean service demand
    println!(
        "{:>5}  {:>5}  {:>16}  {:>14}",
        "C2", "load", "MPL within 5% PS", "PS E[T] (ms)"
    );
    for &c2 in &[1.0, 2.0, 5.0, 15.0] {
        for &load in &[0.7, 0.9] {
            let lambda = load / mean;
            let h2 = H2::fit(mean, c2);
            let mpl = recommend::min_mpl_for_response_time(h2, lambda, 0.05, 200);
            let ps = mg1::mg1_ps_response_time(lambda, mean);
            println!("{c2:>5}  {load:>5}  {mpl:>16}  {:>14.0}", ps * 1e3);
        }
    }

    println!("\n== a concrete prediction ==");
    let h2 = H2::fit(mean, 15.0);
    let lambda = 0.9 / mean;
    for mpl in [1u32, 5, 10, 20, 30] {
        let t = FlexServer::new(lambda, h2, mpl)
            .and_then(|fs| fs.mean_response_time())
            .expect("load 0.9 is stable at every MPL");
        println!(
            "  MPL {mpl:>2}: predicted mean response time {:.0} ms",
            t * 1e3
        );
    }
    let ps = mg1::mg1_ps_response_time(lambda, mean);
    println!("  PS    : {:.0} ms (insensitive to C²)", ps * 1e3);
    println!(
        "\nCombine both bounds (take the max) to jump-start the feedback\n\
         controller — see `MplController::jumpstart`."
    );
}
