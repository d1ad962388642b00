//! # wsflow-workload — workload generators
//!
//! Reproduces the paper's experimental setup (§4.1): the SOAP-derived
//! constants, the class A/B/C parameter distributions (Table 6), linear
//! workflow generation, random well-formed graph generation in the three
//! §4.2 shapes (bushy / lengthy / hybrid), and network generation. All
//! generators are deterministic per seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classes;
pub mod distributions;
pub mod generator;
pub mod geo;
pub mod scale;
pub mod scenario;
pub mod soap;

pub use classes::ExperimentClass;
pub use distributions::WeightedChoice;
pub use generator::{
    bus_network, line_network, linear_workflow, random_graph_workflow, servers, GraphClass,
};
pub use geo::{geo_instance, GEO_MAX_LATENCY, GEO_MAX_PRICE, GEO_MIN_LATENCY, GEO_MIN_PRICE};
pub use scale::{scale_instance, SCALE_LINK_SPEED};
pub use scenario::{generate, generate_batch, Configuration, Scenario};
