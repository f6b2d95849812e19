//! Dynamic solver selection: string keys → boxed scheduler factories.
//!
//! Serving layers (CLI, experiment runner, a future batching front-end)
//! pick algorithms by *name and configuration*, not by compile-time type;
//! [`SolverRegistry`] is that indirection. The default registry carries
//! every paper algorithm and baseline from [`crate::algo`]; downstream
//! crates (e.g. `busytime-exact`) register additional solvers onto it, and
//! callers can register their own.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::algo::{
    BestFit, BoundedLength, CliqueScheduler, FirstFit, GuessMatch, MinMachines, NextFitArrival,
    NextFitProper, RandomFit, Scheduler,
};
use crate::solve::{Auto, SolveOptions};

/// Builds a configured scheduler from request options. The built scheduler
/// is `Send + Sync` so the solve pipeline may share it across the
/// executor's workers (parallel component decomposition); every registered
/// solver is a stateless value, so the bound costs implementors nothing.
pub type SolverFactory =
    Box<dyn Fn(&SolveOptions) -> Box<dyn Scheduler + Send + Sync> + Send + Sync>;

/// A [`SolverFactory`] as an entry stores it: shared between clones.
type SharedFactory = Arc<dyn Fn(&SolveOptions) -> Box<dyn Scheduler + Send + Sync> + Send + Sync>;

/// One registered solver: key, human description, guarantee note and
/// factory. The factory is shared, so cloning an entry (or a whole
/// registry) never rebuilds or copies a closure.
#[derive(Clone)]
pub struct SolverEntry {
    key: String,
    summary: &'static str,
    guarantee: Option<&'static str>,
    factory: SharedFactory,
}

impl SolverEntry {
    /// The canonical registry key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// One-line description.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Approximation guarantee and the class it holds on, if any.
    pub fn guarantee(&self) -> Option<&'static str> {
        self.guarantee
    }

    /// Instantiates the solver for the given options.
    pub fn build(&self, options: &SolveOptions) -> Box<dyn Scheduler + Send + Sync> {
        (self.factory)(options)
    }
}

impl std::fmt::Debug for SolverEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverEntry")
            .field("key", &self.key)
            .field("summary", &self.summary)
            .field("guarantee", &self.guarantee)
            .finish_non_exhaustive()
    }
}

/// A name-indexed collection of solver factories.
#[derive(Clone, Debug, Default)]
pub struct SolverRegistry {
    entries: BTreeMap<String, SolverEntry>,
    aliases: BTreeMap<String, String>,
}

impl SolverRegistry {
    /// An empty registry (no solvers).
    pub fn empty() -> Self {
        SolverRegistry::default()
    }

    /// The default registry: [`Auto`], every paper algorithm, and every
    /// baseline of [`crate::algo`]. Exhaustive solvers live in
    /// `busytime-exact`, which registers itself via its `register`
    /// function (this crate cannot depend on it).
    pub fn with_defaults() -> Self {
        let mut reg = SolverRegistry::empty();
        reg.register(
            "auto",
            "portfolio: detect structure, dispatch specialist, FirstFit safety net",
            Some("min(specialist, FirstFit); ≤ 4·OPT always"),
            Box::new(|_| Box::new(Auto::new())),
        );
        reg.register(
            "first-fit",
            "sort by length, first machine that fits (§2)",
            Some("≤ 4·OPT on general instances (Thm 2.1)"),
            Box::new(|_| Box::new(FirstFit::paper())),
        );
        reg.register(
            "first-fit-seeded",
            "FirstFit with seeded tie-breaking (uses the request seed)",
            Some("≤ 4·OPT on general instances (Thm 2.1)"),
            Box::new(|opts| Box::new(FirstFit::seeded(opts.seed))),
        );
        reg.register(
            "next-fit-proper",
            "greedy g-batching in start order (§3.1)",
            Some("≤ 2·OPT on proper families (Thm 3.1)"),
            Box::new(|_| Box::new(NextFitProper::new())),
        );
        reg.register(
            "bounded-length",
            "segment the line, b-match jobs to segments (§3.2)",
            Some("≤ (2+ε)·OPT for lengths in [1, d] (Thm 3.2)"),
            Box::new(|_| Box::new(BoundedLength::first_fit())),
        );
        reg.register(
            "clique",
            "δ-sorted g-chunking around a common point (Appendix)",
            Some("≤ 2·OPT on pairwise-overlapping families (Thm A.1)"),
            Box::new(|_| Box::new(CliqueScheduler::new())),
        );
        reg.register(
            "guess-match",
            "guess machine busy intervals, match jobs (size-guarded)",
            None,
            Box::new(|_| Box::new(GuessMatch::new())),
        );
        reg.register(
            "min-machines",
            "optimal machine count ⌈ω/g⌉ via interval coloring (§1.1 baseline)",
            None,
            Box::new(|_| Box::new(MinMachines)),
        );
        reg.register(
            "next-fit-arrival",
            "next-fit in arrival order (baseline)",
            None,
            Box::new(|_| Box::new(NextFitArrival)),
        );
        reg.register(
            "best-fit",
            "machine whose busy time grows least (baseline)",
            None,
            Box::new(|_| Box::new(BestFit)),
        );
        reg.register(
            "random-fit",
            "random feasible machine (uses the request seed; baseline)",
            None,
            Box::new(|opts| Box::new(RandomFit::new(opts.seed))),
        );
        // legacy CLI spellings
        reg.alias("firstfit", "first-fit");
        reg.alias("nextfit", "next-fit-proper");
        reg.alias("greedy", "next-fit-proper");
        reg.alias("arrival", "next-fit-arrival");
        reg.alias("bestfit", "best-fit");
        reg.alias("randomfit", "random-fit");
        reg.alias("minmachines", "min-machines");
        reg.alias("bounded", "bounded-length");
        reg
    }

    /// Registers (or replaces) a solver under `key`.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        summary: &'static str,
        guarantee: Option<&'static str>,
        factory: SolverFactory,
    ) {
        let key = key.into();
        self.entries.insert(
            key.clone(),
            SolverEntry {
                key,
                summary,
                guarantee,
                factory: Arc::from(factory),
            },
        );
    }

    /// Adds an alternative spelling for an existing key.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not registered (registration-time programmer
    /// error, not a runtime condition).
    pub fn alias(&mut self, alias: impl Into<String>, target: &str) {
        assert!(
            self.entries.contains_key(target),
            "alias target `{target}` is not registered"
        );
        self.aliases.insert(alias.into(), target.to_string());
    }

    /// Looks up a solver by canonical key or alias.
    pub fn get(&self, key: &str) -> Option<&SolverEntry> {
        self.entries
            .get(key)
            .or_else(|| self.aliases.get(key).and_then(|t| self.entries.get(t)))
    }

    /// True iff `key` resolves (canonically or via alias).
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Instantiates the solver registered under `key`.
    pub fn build(
        &self,
        key: &str,
        options: &SolveOptions,
    ) -> Result<Box<dyn Scheduler + Send + Sync>, super::SolveError> {
        match self.get(key) {
            Some(entry) => Ok(entry.build(options)),
            None => Err(super::SolveError::UnknownSolver {
                requested: key.to_string(),
                available: self.names().iter().map(|s| s.to_string()).collect(),
            }),
        }
    }

    /// All canonical keys, sorted (aliases excluded).
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Iterates over all entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = &SolverEntry> {
        self.entries.values()
    }

    /// A table of `key → summary [guarantee]` lines for CLI help output.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            out.push_str(&format!("  {:<18} {}", entry.key(), entry.summary()));
            if let Some(g) = entry.guarantee() {
                out.push_str(&format!(" — {g}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Convenience: the name a scheduler reports, owned (for table rows and
/// serialized reports).
pub fn owned_name(s: &dyn Scheduler) -> String {
    match s.name() {
        Cow::Borrowed(b) => b.to_string(),
        Cow::Owned(o) => o,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    #[test]
    fn defaults_cover_paper_algorithms() {
        let reg = SolverRegistry::with_defaults();
        for key in [
            "auto",
            "first-fit",
            "next-fit-proper",
            "bounded-length",
            "clique",
        ] {
            assert!(reg.contains(key), "missing {key}");
        }
        assert!(reg.names().len() >= 10);
    }

    #[test]
    fn aliases_resolve_to_canonical_entries() {
        let reg = SolverRegistry::with_defaults();
        assert_eq!(reg.get("firstfit").unwrap().key(), "first-fit");
        assert_eq!(reg.get("bounded").unwrap().key(), "bounded-length");
        assert!(!reg.names().contains(&"firstfit")); // aliases not listed
    }

    #[test]
    fn every_entry_builds_and_schedules() {
        let reg = SolverRegistry::with_defaults();
        // a clique so even the class-restricted specialists accept it
        let inst = Instance::from_pairs([(0, 4), (1, 5), (2, 6)], 2);
        let opts = SolveOptions::default();
        for entry in reg.entries() {
            let solver = entry.build(&opts);
            let sched = solver
                .schedule(&inst)
                .unwrap_or_else(|e| panic!("{} failed: {e}", entry.key()));
            sched.validate(&inst).unwrap();
        }
    }

    #[test]
    fn unknown_key_lists_available() {
        let reg = SolverRegistry::with_defaults();
        let msg = match reg.build("no-such", &SolveOptions::default()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected UnknownSolver"),
        };
        assert!(msg.contains("no-such"));
        assert!(msg.contains("first-fit"));
    }

    #[test]
    fn seed_flows_into_seeded_factories() {
        let reg = SolverRegistry::with_defaults();
        let opts = SolveOptions {
            seed: 42,
            ..SolveOptions::default()
        };
        let solver = reg.build("random-fit", &opts).unwrap();
        assert_eq!(solver.name(), "RandomFit[seed42]");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn alias_to_missing_target_panics() {
        SolverRegistry::empty().alias("x", "missing");
    }

    #[test]
    fn custom_registration_overrides() {
        let mut reg = SolverRegistry::with_defaults();
        reg.register(
            "first-fit",
            "overridden",
            None,
            Box::new(|_| Box::new(crate::algo::BestFit)),
        );
        assert_eq!(reg.get("first-fit").unwrap().summary(), "overridden");
    }
}
