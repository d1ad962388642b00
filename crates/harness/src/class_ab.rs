//! Class A and B experiments (§4.1).
//!
//! "In class A, we vary the link capacity and the size of the messages
//! exchanged. In class B, we vary the CPU power of the servers and the
//! workload of the workflow." The paper only reports class C in detail;
//! these runners regenerate the A and B sweeps so the omitted results
//! exist too.

use wsflow_core::registry::paper_bus_algorithms;
use wsflow_workload::{generate_batch, Configuration, ExperimentClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::runner::run_batch;
use crate::summary::{aggregate, aggregates_table};

/// Run one experiment class over the bus-speed sweep.
fn run_class(class: &ExperimentClass, params: &Params, out: &mut ExperimentOutput) {
    let n = *params.server_counts.last().expect("at least one N");
    for &bus in &params.bus_speeds {
        let scenarios = generate_batch(
            Configuration::LineBus(bus),
            params.ops,
            n,
            class,
            params.base_seed,
            params.seeds,
        );
        let records = run_batch(&scenarios, || paper_bus_algorithms(params.base_seed));
        let aggs = aggregate(&records);
        out.tables.push(aggregates_table(
            format!(
                "Class {} — Line–Bus, M={}, N={n}, bus {} Mbps, {} runs",
                class.name,
                params.ops,
                bus.value(),
                params.seeds
            ),
            &aggs,
        ));
        out.records.extend(records);
    }
}

/// Run class A (network varies, compute pinned).
pub fn run_a(params: &Params) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("class_a");
    run_class(&ExperimentClass::class_a(), params, &mut out);
    out
}

/// Run class B (compute varies, network pinned).
pub fn run_b(params: &Params) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("class_b");
    run_class(&ExperimentClass::class_b(), params, &mut out);
    out
}

/// Run both classes into one output bundle.
pub fn run(params: &Params) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("class_ab");
    run_class(&ExperimentClass::class_a(), params, &mut out);
    run_class(&ExperimentClass::class_b(), params, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_classes_run() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.tables.len(), 2 * params.bus_speeds.len());
        assert!(out.tables[0].title().contains("Class A"));
        assert!(out.tables.last().unwrap().title().contains("Class B"));
    }

    #[test]
    fn individual_runners() {
        let params = Params::quick();
        let a = run_a(&params);
        assert_eq!(a.id, "class_a");
        assert!(!a.records.is_empty());
        let b = run_b(&params);
        assert_eq!(b.id, "class_b");
        assert_eq!(a.records.len(), b.records.len());
    }
}
