//! Ablation benches for the analysis design choices:
//!
//! * predicate edges vs primitive tracking, separately and together;
//! * declared-type parameter filtering on/off;
//! * saturation on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skipflow_core::{analyze, AnalysisConfig};
use skipflow_synth::{build_benchmark, suites};

fn bench_feature_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_features");
    group.sample_size(15);
    let spec = suites::by_name("sunflow").expect("sunflow spec");
    let bench = build_benchmark(&spec);
    let configs = [
        ("PTA", AnalysisConfig::baseline_pta()),
        ("predicates-only", AnalysisConfig::predicates_only()),
        ("primitives-only", AnalysisConfig::primitives_only()),
        ("SkipFlow", AnalysisConfig::skipflow()),
    ];
    for (name, config) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| analyze(&bench.program, &bench.roots, config))
        });
    }
    group.finish();
}

fn bench_declared_type_filtering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_declared_type_filtering");
    group.sample_size(15);
    let spec = suites::by_name("xalan").expect("xalan spec");
    let bench = build_benchmark(&spec);
    for on in [true, false] {
        let config = AnalysisConfig::skipflow().with_declared_type_filtering(on);
        group.bench_with_input(
            BenchmarkId::from_parameter(if on { "on" } else { "off" }),
            &config,
            |b, config| b.iter(|| analyze(&bench.program, &bench.roots, config)),
        );
    }
    group.finish();
}

fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_saturation");
    group.sample_size(15);
    let spec = suites::by_name("chi-square").expect("chi-square spec");
    let bench = build_benchmark(&spec);
    for threshold in [None, Some(8), Some(32)] {
        let config = AnalysisConfig::skipflow().with_saturation(threshold);
        let label = threshold.map_or("off".to_string(), |t| t.to_string());
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| analyze(&bench.program, &bench.roots, config))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_feature_ablation,
    bench_declared_type_filtering,
    bench_saturation
);
criterion_main!(benches);
