//! Round-trip properties of the `SFBC` binary program format, driven by the
//! workload generator: encode → decode must preserve structure, printed
//! form, interpreter behaviour, and analysis results. Mutated `.sfbc`
//! streams and mutated source text must never panic the loader or the
//! analysis of whatever still loads.

use proptest::prelude::*;
use skipflow::analysis::{analyze, AnalysisConfig, AnalysisSession};
use skipflow::ir::encode::{decode, encode};
use skipflow::ir::frontend::compile;
use skipflow::ir::interp::{run, InterpConfig};
use skipflow::ir::printer::print_program;
use skipflow::ir::{MethodId, Program};
use skipflow::synth::{build_benchmark, suites, BenchmarkSpec, Suite};

/// Source text for the frontend mutation case: it compiles unmutated and
/// touches every statement form the analysis models (dispatch, fields,
/// loops, `any()`, type and null checks, throw and catch).
const FUZZ_SRC: &str = "
    abstract class Shape { abstract method area(): int; }
    class Circle extends Shape { method area(): int { return 3; } }
    class Square extends Shape { method area(): int { return 4; } }
    class Err { }
    class Holder { var s: Shape; static var count: int; }
    class Main {
      static method pick(c: int): Shape {
        if (c > 2 && c < 9) { return new Circle(); }
        return new Square();
      }
      static method boom(c: int): int {
        if (c == 7) { throw new Err(); }
        return c;
      }
      static method main(): int {
        var h = new Holder();
        var i = 0;
        while (i < 5) {
          h.s = Main.pick(any());
          i = any();
        }
        var got = h.s;
        if (got == null) { return 0; }
        if (got instanceof Circle) { Holder.count = Main.boom(got.area()); }
        var e = catch (Err);
        if (e != null) { return 1; }
        return got.area();
      }
    }
";

/// Analyzes a loaded (possibly mutated) program from the roots that are in
/// range for it. Invalid input must come back as a structured error from
/// `build` or `try_solve`; the only failure this can report is a panic.
fn analyze_without_panicking(program: &Program, roots: &[MethodId]) {
    let in_range = roots
        .iter()
        .copied()
        .filter(|m| m.index() < program.method_count());
    if let Ok(mut session) = AnalysisSession::builder(program)
        .skipflow()
        .roots(in_range)
        .build()
    {
        let _ = session.try_solve();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn roundtrip_preserves_everything(
        seed in 0u64..1_000_000,
        methods in 40usize..140,
        dead in 0.0f64..0.5,
    ) {
        let mut spec = BenchmarkSpec::new("rt", Suite::DaCapo, methods, dead);
        spec.seed = seed;
        let bench = build_benchmark(&spec);
        let original = &bench.program;

        let bytes = encode(original);
        let decoded = decode(&bytes).expect("valid bytes decode");

        // Structure and printed form.
        prop_assert_eq!(original.type_count(), decoded.type_count());
        prop_assert_eq!(original.method_count(), decoded.method_count());
        prop_assert_eq!(print_program(original), print_program(&decoded));

        // Interpreter behaviour.
        let main = bench.roots[0];
        let cfg = InterpConfig { seed: 5, max_steps: 20_000, ..Default::default() };
        let a = run(original, main, &[], &cfg);
        let b = run(&decoded, main, &[], &cfg);
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(&a.executed_methods, &b.executed_methods);

        // Analysis results.
        let ra = analyze(original, &bench.roots, &AnalysisConfig::skipflow());
        let rb = analyze(&decoded, &bench.roots, &AnalysisConfig::skipflow());
        prop_assert_eq!(ra.reachable_methods(), rb.reachable_methods());
        prop_assert_eq!(ra.metrics(original), rb.metrics(&decoded));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated streams never panic the decoder, and whatever still decodes
    /// never panics the analysis.
    #[test]
    fn decoder_is_panic_free_under_mutation(
        seed in 0u64..10_000,
        mutation_byte in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let mut spec = BenchmarkSpec::new("fuzz", Suite::DaCapo, 40, 0.2);
        spec.seed = seed;
        let bench = build_benchmark(&spec);
        let mut bytes = encode(&bench.program);
        if bytes.is_empty() { return Ok(()); }
        let idx = mutation_byte % bytes.len();
        bytes[idx] ^= xor;
        // Must not panic; Err is fine.
        if let Ok(program) = decode(&bytes) {
            analyze_without_panicking(&program, &bench.roots);
        }
    }

    /// Source text with one byte flipped, inserted, or deleted never panics
    /// the frontend, and whatever still compiles never panics the analysis.
    #[test]
    fn frontend_is_panic_free_under_mutation(
        mutation_byte in 0usize..4096,
        op in 0u8..3,
        byte in 0u8..=255,
    ) {
        let mut text = FUZZ_SRC.as_bytes().to_vec();
        let idx = mutation_byte % text.len();
        match op {
            0 => text[idx] ^= byte.max(1),
            1 => text.insert(idx, byte),
            _ => {
                text.remove(idx);
            }
        }
        // Must not panic; Err is fine.
        if let Ok(program) = compile(&String::from_utf8_lossy(&text)) {
            let every_method: Vec<MethodId> =
                (0..program.method_count()).map(MethodId::from_index).collect();
            analyze_without_panicking(&program, &every_method);
        }
    }
}

#[test]
fn encoding_is_deterministic_and_compact() {
    let spec = BenchmarkSpec::new("det", Suite::DaCapo, 100, 0.3);
    let bench = build_benchmark(&spec);
    let a = encode(&bench.program);
    let b = encode(&bench.program);
    assert_eq!(a, b, "same program, same bytes");
    // Sanity: the binary form is smaller than the printed form.
    let printed = print_program(&bench.program).len();
    assert!(
        a.len() < printed,
        "binary ({}) should beat text ({printed})",
        a.len()
    );
}

/// Decoding writes bodies straight into the program's pools, and encoding
/// reads them back through the body view: re-encoding a decoded program
/// must reproduce the input byte for byte.
#[test]
fn decoded_programs_re_encode_to_the_same_bytes() {
    let ladder = BenchmarkSpec::new("rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    for spec in std::iter::once(ladder).chain(suites::quick()) {
        let bytes = encode(&build_benchmark(&spec).program);
        let decoded = decode(&bytes).expect("decodes");
        assert!(encode(&decoded) == bytes, "{}: re-encoding changed the bytes", spec.name);
    }
}
