//! Golden search statistics of `BranchAndBound::deploy_with_proof`.
//!
//! The proof search is one depth-first recursion from the root, so its
//! node, prune and incumbent-update counts and its cost are a pure
//! function of the instance and the node budget. The table below pins
//! them on 24 seeded instances (line and graph workflows, 2–4 servers,
//! three bus speeds; the last six under a node budget small enough to
//! cut the search), so any change to the traversal order, the bound or
//! the budget check shows up as a changed row.

use wsflow_core::BranchAndBound;
use wsflow_cost::Problem;
use wsflow_model::MbitsPerSec;
use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};

/// `(nodes_expanded, prunes, incumbent_updates, proven_optimal, cost bits)`
/// per instance, in instance order.
const GOLDEN: &[(u64, u64, u64, bool, u64)] = &[
    (31, 30, 1, true, 4590548643792302124),
    (28, 25, 1, true, 4590296874558733603),
    (7, 6, 1, true, 4581588535616416798),
    (10, 21, 0, true, 4589468260265693457),
    (247, 495, 0, true, 4594140621180220582),
    (406, 804, 3, true, 4590762171580330755),
    (96, 273, 4, true, 4585542495629808073),
    (50, 139, 3, true, 4583583556752596009),
    (2143, 6414, 4, true, 4591519052538506144),
    (26, 23, 1, true, 4587966099621982786),
    (9, 6, 2, true, 4586228733383653112),
    (13, 12, 1, true, 4581421828931458171),
    (19, 39, 0, true, 4593071139967589854),
    (65, 128, 1, true, 4588999693750862825),
    (19, 21, 0, true, 4569832565890358094),
    (124, 373, 0, true, 4586766100489271160),
    (774, 2307, 4, true, 4591566370838975010),
    (1366, 4099, 0, true, 4593517088084035941),
    (15, 16, 0, true, 4586285716529018307),
    (15, 12, 2, true, 4589404643017837172),
    (50, 45, 2, false, 4594034307405977022),
    (35, 68, 1, true, 4591870180066957721),
    (21, 37, 2, true, 4583612442870408956),
    (40, 57, 7, true, 4584887885994051324),
];

fn instance(i: u64) -> (Problem, BranchAndBound) {
    let class = ExperimentClass::class_c();
    let speed = MbitsPerSec([1.0, 10.0, 100.0][(i % 3) as usize]);
    let (config, ops) = match i % 4 {
        0 | 1 => (Configuration::LineBus(speed), 6 + (i % 3) as usize),
        2 => (Configuration::GraphBus(GraphClass::Bushy, speed), 5),
        _ => (Configuration::GraphBus(GraphClass::Hybrid, speed), 6),
    };
    let servers = 2 + ((i / 3) % 3) as usize;
    let s = generate(config, ops, servers, &class, 500 + i);
    let problem = Problem::new(s.workflow, s.network).expect("generated scenarios are valid");
    let bnb = if i >= 18 {
        BranchAndBound::with_budget(20 + 15 * (i - 18))
    } else {
        BranchAndBound::new()
    };
    (problem, bnb)
}

#[test]
fn deploy_with_proof_statistics_match_the_golden_table() {
    let actual: Vec<(u64, u64, u64, bool, u64)> = (0..24)
        .map(|i| {
            let (problem, bnb) = instance(i);
            let out = bnb.deploy_with_proof(&problem);
            (
                out.nodes_expanded,
                out.prunes,
                out.incumbent_updates,
                out.proven_optimal,
                out.cost.to_bits(),
            )
        })
        .collect();
    let table: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN,
        "deploy_with_proof statistics changed; the new table is:\n{table}"
    );
}
