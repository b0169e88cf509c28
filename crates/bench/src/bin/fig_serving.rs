//! Runs the multi-tenant serving experiment (tail latency, admission
//! control, weighted fairness; DESIGN.md §16).

use assasin_bench::experiments::fig_serving;
use assasin_bench::Scale;

fn main() {
    match fig_serving::run(&Scale::from_env()) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("fig_serving: {e}");
            std::process::exit(1);
        }
    }
}
