//! Benchmark specifications: the knobs that shape one synthetic program.

/// The benchmark suite a program belongs to (paper §6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Client-side Java workloads (DaCapo 9.12 shapes).
    DaCapo,
    /// Concurrent/object-oriented JVM workloads (Renaissance 0.15 shapes).
    Renaissance,
    /// Spring / Micronaut / Quarkus web services.
    Microservices,
}

impl Suite {
    /// Display name matching the paper's Table 1 blocks.
    pub fn name(self) -> &'static str {
        match self {
            Suite::DaCapo => "DaCapo",
            Suite::Renaissance => "Renaissance",
            Suite::Microservices => "Microservices",
        }
    }
}

/// How a dead module is guarded — each kind is one of the code patterns the
/// paper identifies as the source of SkipFlow's wins (§2, §3, §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GuardKind {
    /// Figure 1 (Sunflow): a never-null parameter gets a `new DeadImpl()`
    /// default under an `== null` guard. Pruned by predicate edges alone.
    NullDefault,
    /// Figure 2 / §3: a configuration method returns the constant `false`;
    /// the guarded branch enters the module. Needs predicates + primitives.
    ConstFlag,
    /// Figure 2 (`isVirtual`): an interprocedural type test on a class that
    /// is never instantiated, returned as a boolean constant. Needs
    /// predicates + primitives.
    TypeTest,
    /// §5 (`Assert.fail()`): an always-throwing helper makes the following
    /// module entry unreachable. Pruned by predicate edges alone.
    AlwaysThrows,
}

/// The mix of guard kinds used for a program's dead modules, as relative
/// weights.
#[derive(Clone, Copy, Debug)]
pub struct GuardMix {
    /// Weight of [`GuardKind::NullDefault`].
    pub null_default: u32,
    /// Weight of [`GuardKind::ConstFlag`].
    pub const_flag: u32,
    /// Weight of [`GuardKind::TypeTest`].
    pub type_test: u32,
    /// Weight of [`GuardKind::AlwaysThrows`].
    pub always_throws: u32,
}

impl GuardMix {
    /// The default mix: an even spread with fewer always-throwing guards.
    pub fn balanced() -> Self {
        GuardMix {
            null_default: 3,
            const_flag: 3,
            type_test: 3,
            always_throws: 1,
        }
    }

    /// A Sunflow-like mix: dominated by the guarded-default pattern (the
    /// paper attributes the 52 % outlier to it).
    pub fn null_default_heavy() -> Self {
        GuardMix {
            null_default: 8,
            const_flag: 1,
            type_test: 1,
            always_throws: 0,
        }
    }

    /// A framework-like mix: configuration flags dominate (microservice
    /// frameworks toggle features with build-time flags).
    pub fn const_flag_heavy() -> Self {
        GuardMix {
            null_default: 1,
            const_flag: 5,
            type_test: 3,
            always_throws: 1,
        }
    }

    pub(crate) fn pick(&self, roll: u32) -> GuardKind {
        let total = self.null_default + self.const_flag + self.type_test + self.always_throws;
        let r = roll % total.max(1);
        if r < self.null_default {
            GuardKind::NullDefault
        } else if r < self.null_default + self.const_flag {
            GuardKind::ConstFlag
        } else if r < self.null_default + self.const_flag + self.type_test {
            GuardKind::TypeTest
        } else {
            GuardKind::AlwaysThrows
        }
    }
}

/// Full specification of one synthetic benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkSpec {
    /// Benchmark name (matches the paper's Table 1 row).
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// RNG seed (derived deterministically from the name by default).
    pub seed: u64,
    /// Target number of concrete methods (≈ the paper's PTA-reachable count
    /// at 1/100 scale).
    pub total_methods: usize,
    /// Fraction of methods placed behind SkipFlow-foldable guards
    /// (≈ the paper's per-benchmark reachable-method reduction).
    pub dead_fraction: f64,
    /// Guard mix for the dead modules.
    pub guard_mix: GuardMix,
    /// Virtual-dispatch fanout: implementations per module interface.
    pub dispatch_fanout: usize,
    /// Call-chain depth inside each implementation.
    pub chain_depth: usize,
    /// Emit calls inside `while` bodies (each facade loop allocates and
    /// dispatches per iteration). On by default so loop-predicate behaviour
    /// — callees whose `φ_pred` enabling arrives mid-solve — is visible to
    /// the interpreter-differential proptests; method counts are unchanged,
    /// so Table 1 calibration is undisturbed.
    pub loop_calls: bool,
    /// Shared-field fan-out workload: number of reader methods loading one
    /// shared field and dispatching on it (`0` disables the subsystem).
    /// This is the regime where SCC ordering is asymptotically better than
    /// FIFO: every new type stored into the single field sink must reach
    /// every reader, and draining all writers before the sink fans out
    /// pushes the accumulated state once instead of once per writer.
    pub shared_sink_readers: usize,
    /// Writer implementations feeding the shared field sink (each stores a
    /// distinct type, so the sink's state grows one type at a time).
    pub shared_sink_writers: usize,
}

impl BenchmarkSpec {
    /// Creates a spec with the common defaults; `total_methods` and
    /// `dead_fraction` come straight from the paper's Table 1 (scaled).
    pub fn new(
        name: &str,
        suite: Suite,
        total_methods: usize,
        dead_fraction: f64,
    ) -> Self {
        // A stable seed derived from the name keeps the corpus reproducible
        // without hand-maintaining seed tables.
        let seed = name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            });
        BenchmarkSpec {
            name: name.to_string(),
            suite,
            seed,
            total_methods,
            dead_fraction,
            guard_mix: GuardMix::balanced(),
            dispatch_fanout: 3,
            chain_depth: 4,
            loop_calls: true,
            shared_sink_readers: 0,
            shared_sink_writers: 0,
        }
    }

    /// Builder-style: overrides the guard mix.
    pub fn with_guard_mix(mut self, mix: GuardMix) -> Self {
        self.guard_mix = mix;
        self
    }

    /// Builder-style: overrides the dispatch fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.dispatch_fanout = fanout;
        self
    }

    /// Builder-style: toggles calls inside `while` bodies.
    pub fn with_loop_calls(mut self, on: bool) -> Self {
        self.loop_calls = on;
        self
    }

    /// Builder-style: enables the shared-field fan-out subsystem with the
    /// given reader and writer counts (writers are clamped to ≥ 1 when
    /// readers are requested).
    pub fn with_shared_sink(mut self, readers: usize, writers: usize) -> Self {
        self.shared_sink_readers = readers;
        self.shared_sink_writers = writers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = BenchmarkSpec::new("sunflow", Suite::DaCapo, 100, 0.5);
        let b = BenchmarkSpec::new("sunflow", Suite::DaCapo, 100, 0.5);
        let c = BenchmarkSpec::new("xalan", Suite::DaCapo, 100, 0.5);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn guard_mix_pick_covers_all_kinds() {
        let mix = GuardMix::balanced();
        let kinds: std::collections::HashSet<_> = (0..10).map(|r| mix.pick(r)).collect();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn zero_weight_kinds_are_never_picked() {
        let mix = GuardMix::null_default_heavy(); // always_throws weight 0
        assert!((0..100).map(|r| mix.pick(r)).all(|k| k != GuardKind::AlwaysThrows));
    }
}
