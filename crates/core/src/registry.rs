//! Algorithms by name: the one name → solver table that `wsflow` and
//! `wsflowd` share, and the named collections the experiment harness
//! compares.

use crate::algorithm::DeploymentAlgorithm;
use crate::blackboard::Blackboard;
use crate::exhaustive::Exhaustive;
use crate::fair_load::FairLoad;
use crate::flmme::FairLoadMergeMessages;
use crate::fltr::FairLoadTieResolver;
use crate::fltr2::FairLoadTieResolver2;
use crate::holm::HeavyOpsLargeMsgs;
use crate::line_line::LineLine;
use crate::portfolio::Portfolio;
use crate::refine::{HillClimb, SimulatedAnnealing};

/// A solver that can cross a thread boundary (into `wsflowd`'s worker
/// pool, for one).
pub type BoxedAlgorithm = Box<dyn DeploymentAlgorithm + Send + Sync>;

/// Every name [`by_name`] accepts, in the order help text lists them.
pub const NAMES: &[&str] = &[
    "fairload",
    "fltr",
    "fltr2",
    "flmme",
    "holm",
    "portfolio",
    "blackboard",
    "hillclimb",
    "sa",
    "exhaustive",
];

/// The solver named `name` (one of [`NAMES`], in any ASCII case);
/// `seed` feeds the randomised members. `None` for any other name.
pub fn by_name(name: &str, seed: u64) -> Option<BoxedAlgorithm> {
    let canonical = NAMES.iter().find(|n| n.eq_ignore_ascii_case(name))?;
    Some(match *canonical {
        "fairload" => Box::new(FairLoad),
        "fltr" => Box::new(FairLoadTieResolver::new(seed)),
        "fltr2" => Box::new(FairLoadTieResolver2::new(seed)),
        "flmme" => Box::new(FairLoadMergeMessages::new(seed)),
        "holm" => Box::new(HeavyOpsLargeMsgs),
        "portfolio" => Box::new(Portfolio::new(seed)),
        "blackboard" => Box::new(Blackboard::new(seed)),
        "hillclimb" => Box::new(HillClimb::new(Portfolio::new(seed))),
        "sa" => Box::new(SimulatedAnnealing::new(seed)),
        "exhaustive" => Box::new(Exhaustive::new()),
        other => unreachable!("NAMES lists {other:?} without a solver"),
    })
}

/// The five bus-topology algorithms the paper's figures compare
/// (Fair Load, FLTR, FLTR², FL-MergeMsgEnds, HeavyOps-LargeMsgs), seeded
/// for reproducibility.
pub fn paper_bus_algorithms(seed: u64) -> Vec<Box<dyn DeploymentAlgorithm>> {
    vec![
        Box::new(FairLoad),
        Box::new(FairLoadTieResolver::new(seed)),
        Box::new(FairLoadTieResolver2::new(seed)),
        Box::new(FairLoadMergeMessages::new(seed)),
        Box::new(HeavyOpsLargeMsgs),
    ]
}

/// The four Line–Line variants (§3.2).
pub fn line_line_variants() -> Vec<Box<dyn DeploymentAlgorithm>> {
    LineLine::variants()
        .into_iter()
        .map(|v| Box::new(v) as Box<dyn DeploymentAlgorithm>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_in_any_case_and_nothing_else_does() {
        let unique: std::collections::HashSet<&str> = NAMES.iter().copied().collect();
        assert_eq!(unique.len(), NAMES.len());
        for name in NAMES {
            assert!(by_name(name, 7).is_some(), "{name}");
            let upper = name.to_ascii_uppercase();
            assert_eq!(
                by_name(&upper, 7).map(|a| a.name().to_string()),
                by_name(name, 7).map(|a| a.name().to_string())
            );
        }
        for name in ["", "all", "magic", "fair load", "holm "] {
            assert!(by_name(name, 7).is_none(), "{name:?}");
        }
    }

    #[test]
    fn registries_have_expected_sizes_and_unique_names() {
        let algos = paper_bus_algorithms(0);
        assert_eq!(algos.len(), 5);
        let names: std::collections::HashSet<String> =
            algos.iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(line_line_variants().len(), 4);
    }
}
