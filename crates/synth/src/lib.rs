//! # skipflow-synth
//!
//! Deterministic synthetic workload generation for the SkipFlow evaluation.
//!
//! The paper evaluates on DaCapo, Renaissance, and a set of microservice
//! applications — hundreds of thousands of Java methods that are not
//! available here. This crate builds 1/100-scale stand-ins from the code
//! patterns the paper identifies as the source of SkipFlow's precision wins
//! (guarded defaults, constant configuration flags, interprocedural type
//! tests, always-throwing asserts), calibrated per benchmark to the
//! reachable-method reductions of Table 1. The *mechanism* is genuinely
//! exercised: the baseline PTA really does pull the guarded modules in, and
//! SkipFlow really does prove them dead — nothing is hard-coded.
//!
//! ```
//! use skipflow_synth::{build_benchmark, suites};
//! use skipflow_core::{analyze, AnalysisConfig};
//!
//! let spec = suites::by_name("lusearch").unwrap();
//! let bench = build_benchmark(&spec);
//! let result = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
//! assert!(result.reachable_methods().len() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod edits;
mod generator;
mod spec;
pub mod suites;

pub use edits::{build_edit_script, EditOp, EditScript};
pub use generator::{build, build_benchmark, Benchmark};
pub use spec::{BenchmarkSpec, GuardKind, GuardMix, Suite};

use skipflow_ir::{MethodId, Program};

/// Deterministically selects up to `want` extra root methods spread evenly
/// across `program` (concrete methods only), skipping the `existing` roots.
/// The incremental-resume workloads (the trajectory harness's `resume`
/// rungs and `tests/session_resume.rs`) share this selection so the
/// benchmarked workload is exactly the differentially tested one.
pub fn pick_spread_roots(
    program: &Program,
    existing: &[MethodId],
    want: usize,
) -> Vec<MethodId> {
    let candidates: Vec<MethodId> = program
        .iter_methods()
        .filter(|&m| program.method(m).has_body() && !existing.contains(&m))
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let stride = (candidates.len() / want.max(1)).max(1);
    candidates.into_iter().step_by(stride).take(want).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_core::{analyze, AnalysisConfig};

    #[test]
    fn skipflow_reduction_tracks_the_calibrated_fraction() {
        // The generated program's SkipFlow-vs-PTA reduction must land close
        // to the spec's dead fraction — that is the calibration contract.
        for spec in [
            suites::by_name("lusearch").unwrap(),
            suites::by_name("sunflow").unwrap(),
        ] {
            let bench = build_benchmark(&spec);
            let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
            let skf = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
            let pta_n = pta.reachable_methods().len() as f64;
            let skf_n = skf.reachable_methods().len() as f64;
            let reduction = 1.0 - skf_n / pta_n;
            assert!(
                (reduction - spec.dead_fraction).abs() < 0.08,
                "{}: measured reduction {reduction:.3} vs calibrated {:.3} \
                 (PTA {pta_n}, SkipFlow {skf_n})",
                spec.name,
                spec.dead_fraction
            );
        }
    }

    #[test]
    fn pta_reaches_nearly_everything_generated() {
        let spec = suites::by_name("lusearch").unwrap();
        let bench = build_benchmark(&spec);
        let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
        let reached = pta.reachable_methods().len() as f64;
        let total = bench.total_methods() as f64;
        assert!(
            reached / total > 0.95,
            "PTA should reach ~all generated code: {reached}/{total}"
        );
    }
}
