//! Pins the exact shape of every PVPG fragment the builder produces.
//!
//! For every reached method of a program, the fingerprint folds in, in
//! method-id order: the fragment's flows (kind and block, in arena order)
//! with their use, predicate and observe targets (in iteration order), the
//! parameter and return flows, the call sites in order with their argument
//! flows, the `if` records, the per-block entry predicates and the
//! per-block statement flows. Any change to flow numbering, edge order,
//! site order or reporting metadata changes the fingerprint, so a builder
//! or storage rewrite that keeps these constants produces the same graph.
//!
//! Flow indices follow discovery order, which each solver's worklist sets,
//! so every program is pinned under both solvers: the sequential solver's
//! tiered queue and the reference solver's plain FIFO.
//!
//! The hash is an in-test FNV-1a over fixed-width integers and `Debug`
//! renderings of the core's own types, so it does not depend on the
//! standard library's unstable `DefaultHasher`.

use skipflow::analysis::{analyze, AnalysisConfig, Pvpg, SolverKind};
use skipflow::ir::{BlockId, MethodId};
use skipflow::synth::{build_benchmark, suites, BenchmarkSpec, Suite};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn debug(&mut self, x: &impl std::fmt::Debug) {
        let s = format!("{x:?}");
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Folds one list of flow targets, length-prefixed.
fn targets(h: &mut Fnv, it: impl Iterator<Item = skipflow::analysis::FlowId>) {
    let list: Vec<usize> = it.map(|f| f.index()).collect();
    h.usize(list.len());
    for f in list {
        h.usize(f);
    }
}

fn fingerprint(g: &Pvpg, program: &skipflow::ir::Program) -> u64 {
    let mut h = Fnv::new();
    let mut methods = 0usize;
    for m in (0..program.method_count()).map(MethodId::from_index) {
        let Some(mg) = g.method_graph(m) else {
            continue;
        };
        methods += 1;
        h.usize(m.index());
        let flows: Vec<_> = g.method_flows(mg).collect();
        h.usize(flows.len());
        for &f in &flows {
            let flow = g.flow(f);
            h.usize(f.index());
            h.debug(&flow.kind);
            h.debug(&flow.block);
            targets(&mut h, g.use_targets(f));
            targets(&mut h, g.pred_targets(f));
            targets(&mut h, g.observe_targets(f));
        }
        targets(&mut h, g.method_params(mg).iter().copied());
        h.debug(&mg.ret);
        let sites = g.method_sites(mg);
        h.usize(sites.len());
        for s in sites {
            h.usize(s.index());
            h.usize(g.site(s).flow.index());
            targets(&mut h, g.site_args(s).iter().copied());
        }
        let ifs = g.method_ifs(mg);
        h.usize(ifs.len());
        for rec in ifs {
            h.usize(rec.block.index());
            h.debug(&rec.category);
            h.usize(rec.then_pred.index());
            h.usize(rec.else_pred.index());
        }
        targets(&mut h, g.block_preds(mg).iter().copied());
        let n_blocks = g.block_preds(mg).len();
        for b in (0..n_blocks).map(BlockId::from_index) {
            targets(&mut h, g.stmt_flows(mg, b).iter().copied());
        }
    }
    h.usize(methods);
    h.usize(g.flow_count());
    h.0
}

/// The fingerprints of `spec`'s graph under the sequential and the
/// reference solver, in that order.
fn fingerprints_of(spec: &BenchmarkSpec) -> [u64; 2] {
    let bench = build_benchmark(spec);
    [SolverKind::Sequential, SolverKind::Reference].map(|solver| {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let result = analyze(&bench.program, &bench.roots, &config);
        fingerprint(result.graph(), &bench.program)
    })
}

#[test]
fn quick_corpus_fragment_shapes_are_pinned() {
    // `(program, [sequential, reference])`.
    let expected: [(&str, [u64; 2]); 4] = [
        ("lusearch", [9727665025691284376, 754514763038067561]),
        ("sunflow", [6642611389146987091, 13832999032229267960]),
        ("micronaut-helloworld", [11888985311168875017, 6898090275233392795]),
        ("scrabble", [15309675472988988479, 530126888115478500]),
    ];
    let got: Vec<(String, [u64; 2])> = suites::quick()
        .iter()
        .map(|spec| (spec.name.clone(), fingerprints_of(spec)))
        .collect();
    let want: Vec<(String, [u64; 2])> =
        expected.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, want);
}

#[test]
fn ladder_fragment_shapes_are_pinned() {
    let spec = BenchmarkSpec::new("rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    assert_eq!(fingerprints_of(&spec), [8314801903758946610, 8291038059928179637]);
}

#[test]
fn shared_sink_fragment_shapes_are_pinned() {
    let spec = BenchmarkSpec::new("fanout-100", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64);
    assert_eq!(fingerprints_of(&spec), [9793394209361792785, 11543753711572434417]);
}
