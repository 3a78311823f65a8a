//! Shared helper of the root integration tests: every analysis runs
//! through the engine registry, the one public way to call an algorithm.

use qava::analysis::engine::{AnalysisRequest, Certified, EngineError, EngineRegistry};
use qava::lp::BackendChoice;
use qava::pts::Pts;

/// Runs the built-in engine `name` (`explinsyn`, `explowsyn`,
/// `hoeffding-linear`, `azuma`, …) on a compiled program with the default
/// budgets, in a fresh LP session under the default backend policy.
pub fn certify(name: &str, pts: &Pts) -> Result<Certified, EngineError> {
    let registry = EngineRegistry::with_builtins();
    let direction = registry.engine(name).expect("built-in engine").direction();
    registry
        .run_engine(
            name,
            &AnalysisRequest::new(pts, direction),
            BackendChoice::default(),
        )
        .expect("built-in engine")
        .outcome
}
