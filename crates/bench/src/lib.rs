//! Experiment driver for the SBFT reproduction.
//!
//! Runs the five protocol variants of §IX on identical simulated
//! substrates and extracts the measurements the paper reports. Each
//! table/figure has a binary under `src/bin/` (listed in the README's
//! "Benchmarks"); this library holds the shared machinery.

pub mod driver;
pub mod micro;
pub mod table;
pub mod trajectory;

pub use driver::{
    eth_workload, run_experiment, ExperimentResult, ExperimentSpec, Scale, ServiceKind,
    TopologyKind, Variant,
};
pub use table::{write_csv, Table};
