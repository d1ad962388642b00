//! The §3.4 monitoring loop: XOR branch probabilities are "based on
//! monitoring initial executions of the workflow". This example deploys
//! with *wrong* assumed probabilities, monitors simulated executions,
//! re-estimates the probabilities from the observed branch frequencies,
//! and redeploys — showing the expected cost estimate converging to the
//! truth.
//!
//! Run with: `cargo run --example probability_estimation`

use wsflow::model::BlockSpec;
use wsflow::prelude::*;
use wsflow::sim::BranchEstimates;

/// The true behaviour: the expensive fraud-check branch runs for 85 % of
/// requests, not the 10 % the designers assumed.
fn workflow_with(p_fraud: f64) -> Workflow {
    let spec = BlockSpec::seq(vec![
        BlockSpec::op("intake", MCycles(10.0)),
        BlockSpec::Decision {
            kind: DecisionKind::Xor,
            name: "risk".into(),
            branches: vec![
                (
                    Probability::new(p_fraud),
                    BlockSpec::seq(vec![
                        BlockSpec::op("fraud_check", MCycles(500.0)),
                        BlockSpec::op("manual_review", MCycles(50.0)),
                    ]),
                ),
                (
                    Probability::new(1.0 - p_fraud),
                    BlockSpec::op("fast_path", MCycles(10.0)),
                ),
            ],
        },
        BlockSpec::op("respond", MCycles(10.0)),
    ]);
    let mut sizes = [0.057838, 0.00666, 0.163208].iter().cycle().copied();
    spec.lower("risk-pipeline", &mut move || {
        Mbits(sizes.next().expect("cycle is infinite"))
    })
    .expect("well-formed")
}

fn main() {
    const TRUE_P: f64 = 0.85;
    const ASSUMED_P: f64 = 0.10;

    let network = wsflow::net::topology::bus(
        "cluster",
        vec![
            Server::with_ghz("a", 1.0),
            Server::with_ghz("b", 2.0),
            Server::with_ghz("c", 3.0),
        ],
        MbitsPerSec(100.0),
    )
    .expect("valid network");

    // 1. Deploy believing the fraud branch is rare.
    let assumed = Problem::new(workflow_with(ASSUMED_P), network.clone()).expect("valid");
    let mapping = HeavyOpsLargeMsgs.deploy(&assumed).expect("valid");
    let believed = Evaluator::new(&assumed).execution_time(&mapping);

    // 2. Reality: requests follow the true 85 % distribution.
    let truth = Problem::new(workflow_with(TRUE_P), network.clone()).expect("valid");
    let observed = monte_carlo(&truth, &mapping, SimConfig::ideal(), 3000, 11);
    println!(
        "believed expected time {:.3} ms — observed {:.3} ms (±{:.3}): the {:.0}% assumption was wrong",
        believed.value() * 1e3,
        observed.completion.mean.value() * 1e3,
        observed.completion.ci95_half_width.value() * 1e3,
        ASSUMED_P * 100.0
    );

    // 3. Monitor: estimate branch frequencies from the simulated
    //    executions (the paper's "monitoring initial executions").
    let estimates = BranchEstimates::from_simulation(&truth, &mapping, 2000, 23);
    let reestimated_workflow = estimates.apply(truth.workflow());
    let risk = reestimated_workflow.op_by_name("risk").expect("exists");
    let estimated_p: Vec<f64> = reestimated_workflow
        .out_msgs(risk)
        .iter()
        .map(|&m| reestimated_workflow.message(m).branch_probability.value())
        .collect();
    println!("monitored branch frequencies at XOR 'risk': {estimated_p:?}");

    // 4. Redeploy with the estimated probabilities.
    let informed = Problem::new(reestimated_workflow, network).expect("valid");
    let new_mapping = HeavyOpsLargeMsgs.deploy(&informed).expect("valid");
    let new_believed = Evaluator::new(&informed).execution_time(&new_mapping);
    let new_observed = monte_carlo(&truth, &new_mapping, SimConfig::ideal(), 3000, 31);
    println!(
        "after re-estimation: predicted {:.3} ms, observed {:.3} ms — prediction error {:.1}% (was {:.1}%)",
        new_believed.value() * 1e3,
        new_observed.completion.mean.value() * 1e3,
        (new_believed.value() / new_observed.completion.mean.value() - 1.0).abs() * 100.0,
        (believed.value() / observed.completion.mean.value() - 1.0).abs() * 100.0,
    );
}
