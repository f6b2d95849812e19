//! Property-based tests: every algorithm on random instances must produce
//! feasible schedules respecting the paper's bounds and structure.

use busytime_core::algo::{
    BestFit, BoundedLength, CliqueScheduler, Decomposed, FirstFit, MinMachines, NextFitArrival,
    NextFitProper, RandomFit, Scheduler,
};
use busytime_core::{bounds, verify, Instance, Schedule, ScheduleViolation};
use busytime_interval::{sweep, Interval, IntervalSet};
use proptest::prelude::*;

fn arb_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0i64..200, 1i64..60), 1..max_n),
        1u32..6,
    )
        .prop_map(|(pairs, g)| {
            Instance::new(
                pairs
                    .into_iter()
                    .map(|(s, l)| Interval::with_len(s, l))
                    .collect(),
                g,
            )
        })
}

fn arb_clique_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    // all jobs contain the point 100
    (
        proptest::collection::vec((0i64..=100, 100i64..200), 1..max_n),
        1u32..6,
    )
        .prop_map(|(pairs, g)| {
            Instance::new(
                pairs
                    .into_iter()
                    .map(|(s, c)| Interval::new(s, c))
                    .collect(),
                g,
            )
        })
}

fn arb_proper_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    // sorted starts paired with sorted ends yields a proper family
    (
        proptest::collection::vec((0i64..100, 1i64..30), 1..max_n),
        1u32..5,
    )
        .prop_map(|(seeds, g)| {
            // strictly increasing starts AND ends → proper family
            let mut starts: Vec<i64> = seeds.iter().map(|&(s, _)| s).collect();
            starts.sort_unstable();
            for (i, s) in starts.iter_mut().enumerate() {
                *s += i as i64; // break ties, keep order
            }
            let mut jobs: Vec<Interval> = Vec::with_capacity(seeds.len());
            let mut prev_end = i64::MIN;
            for (i, &(_, l)) in seeds.iter().enumerate() {
                let end = (starts[i] + l).max(prev_end + 1).max(starts[i]);
                jobs.push(Interval::new(starts[i], end));
                prev_end = end;
            }
            Instance::new(jobs, g)
        })
}

proptest! {
    /// All general-purpose schedulers produce feasible schedules and never
    /// beat the lower bound.
    #[test]
    fn schedulers_feasible_and_bounded(inst in arb_instance(40)) {
        let lb = bounds::lower_bound(&inst);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FirstFit::paper()),
            Box::new(FirstFit::seeded(7)),
            Box::new(NextFitProper::new()),
            Box::new(NextFitArrival),
            Box::new(BestFit),
            Box::new(RandomFit::new(3)),
            Box::new(MinMachines),
            Box::new(Decomposed::new(FirstFit::paper())),
        ];
        for s in schedulers {
            let sched = s.schedule(&inst).unwrap();
            prop_assert_eq!(sched.validate(&inst), Ok(()), "{} infeasible", s.name());
            prop_assert!(sched.cost(&inst) >= lb, "{} beat the lower bound", s.name());
        }
    }

    /// FirstFit respects its 4-approximation cap (vs the lower bound, which
    /// is ≤ OPT, so this is implied by — and weaker than — Theorem 2.1;
    /// violations would disprove the theorem).
    #[test]
    fn first_fit_within_4x(inst in arb_instance(50)) {
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        prop_assert!(sched.cost(&inst) <= 4 * bounds::component_lower_bound(&inst).max(1));
    }

    /// Observation 2.2 and Lemma 2.3 hold on every FirstFit run.
    #[test]
    fn first_fit_structure(inst in arb_instance(35)) {
        let ff = FirstFit::paper();
        let sched = ff.schedule(&inst).unwrap();
        let order = ff.job_order(&inst);
        prop_assert_eq!(verify::observation_2_2(&inst, &sched, &order), Ok(()));
        prop_assert_eq!(verify::lemma_2_3(&inst, &sched), Ok(()));
    }

    /// Greedy on proper families: Claim 1 of Theorem 3.1 holds and the cost
    /// is within 2× of the lower bound.
    #[test]
    fn greedy_proper_structure(inst in arb_proper_instance(40)) {
        prop_assert!(inst.is_proper());
        let sched = NextFitProper::strict().schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        prop_assert_eq!(verify::theorem_3_1_claims(&inst, &sched), Ok(()));
        prop_assert!(sched.cost(&inst) <= 2 * bounds::lower_bound(&inst));
    }

    /// The clique algorithm stays within 2× of the lower bound on cliques.
    #[test]
    fn clique_within_2x(inst in arb_clique_instance(30)) {
        prop_assert!(inst.is_clique());
        let sched = CliqueScheduler::new().schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        prop_assert!(sched.cost(&inst) <= 2 * bounds::lower_bound(&inst));
    }

    /// At g = 1 every feasible schedule costs exactly len(J).
    #[test]
    fn g1_cost_is_total_len(pairs in proptest::collection::vec((0i64..100, 1i64..30), 1..30)) {
        let inst = Instance::new(
            pairs.into_iter().map(|(s, l)| Interval::with_len(s, l)).collect(),
            1,
        );
        for s in [
            FirstFit::paper().schedule(&inst).unwrap(),
            NextFitProper::new().schedule(&inst).unwrap(),
            BestFit.schedule(&inst).unwrap(),
        ] {
            prop_assert_eq!(s.cost(&inst), inst.total_len());
        }
    }

    /// MinMachines always attains the machine-count optimum ⌈ω/g⌉ and no
    /// scheduler goes below it.
    #[test]
    fn machine_count_floor(inst in arb_instance(40)) {
        let omega = inst.max_overlap();
        let floor = omega.div_ceil(inst.g() as usize);
        let mm = MinMachines.schedule(&inst).unwrap();
        prop_assert_eq!(mm.machine_count(), floor);
        for s in [
            FirstFit::paper().schedule(&inst).unwrap(),
            BestFit.schedule(&inst).unwrap(),
        ] {
            prop_assert!(s.machine_count() >= floor);
        }
    }

    /// normalize_contiguous preserves cost and produces hull == cost.
    #[test]
    fn normalization_invariants(inst in arb_instance(40)) {
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        let norm = sched.normalize_contiguous(&inst);
        prop_assert_eq!(norm.validate(&inst), Ok(()));
        prop_assert_eq!(norm.cost(&inst), sched.cost(&inst));
        prop_assert_eq!(norm.hull_cost(&inst), norm.cost(&inst));
        prop_assert!(sched.hull_cost(&inst) >= sched.cost(&inst));
    }

    /// Decomposition never changes FirstFit's per-component costs: the merged
    /// cost equals the sum over components.
    #[test]
    fn decomposition_cost_additivity(inst in arb_instance(40)) {
        let merged = Decomposed::new(FirstFit::paper()).schedule(&inst).unwrap();
        let sum: i64 = inst
            .components()
            .iter()
            .map(|(sub, _)| FirstFit::paper().schedule(sub).unwrap().cost(sub))
            .sum();
        prop_assert_eq!(merged.cost(&inst), sum);
    }

    /// BoundedLength segmentation: feasible, segment-disjoint machines, and
    /// within 2× of a per-segment-optimal schedule's reach (checked loosely
    /// via the lower bound and the FirstFit inner solver's 4×).
    #[test]
    fn bounded_length_segments(inst in arb_instance(40)) {
        let bl = BoundedLength::first_fit();
        let sched = bl.schedule(&inst).unwrap();
        prop_assert_eq!(sched.validate(&inst), Ok(()));
        let d = bl.effective_width(&inst);
        // machines never mix segments
        let segments = bl.segments(&inst);
        let mut seg_of_job = vec![0usize; inst.len()];
        for (si, ids) in segments.iter().enumerate() {
            for &id in ids {
                seg_of_job[id] = si;
            }
        }
        for a in 0..inst.len() {
            for b in (a + 1)..inst.len() {
                if sched.machine_of(a) == sched.machine_of(b) {
                    prop_assert_eq!(seg_of_job[a], seg_of_job[b]);
                }
            }
        }
        prop_assert!(d >= inst.max_len());
    }
}

/// FirstFit by definition: each job, in FirstFit's processing order,
/// goes to the lowest-indexed machine where `sweep::max_overlap` over the
/// machine's jobs plus the job stays at most `g`. Only the machine's jobs
/// that intersect the candidate are swept: the machine is feasible before
/// the candidate arrives, so counts can only exceed `g` on the candidate.
fn reference_first_fit(ff: &FirstFit, inst: &Instance) -> Vec<usize> {
    let mut machines: Vec<Vec<Interval>> = Vec::new();
    let mut assignment = vec![0; inst.len()];
    for id in ff.job_order(inst) {
        let job = inst.job(id);
        let fits = |jobs: &Vec<Interval>| {
            let mut family: Vec<Interval> =
                jobs.iter().copied().filter(|j| j.overlaps(&job)).collect();
            family.push(job);
            sweep::max_overlap(&family) <= inst.g() as usize
        };
        let slot = machines.iter().position(fits).unwrap_or_else(|| {
            machines.push(Vec::new());
            machines.len() - 1
        });
        machines[slot].push(job);
        assignment[id] = slot;
    }
    assignment
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FirstFit's assignment is exactly the naive greedy's on instances of
    /// up to a few thousand jobs over a wide horizon, where each machine's
    /// count profile spans many chunks.
    #[test]
    fn first_fit_matches_naive_reference_greedy(
        pairs in proptest::collection::vec((0i64..6_000, 1i64..80), 1..3_000),
        g in 1u32..6,
        seed in 0u64..1_000,
    ) {
        let inst = Instance::new(
            pairs.into_iter().map(|(s, l)| Interval::with_len(s, l)).collect(),
            g,
        );
        for ff in [FirstFit::paper(), FirstFit::seeded(seed)] {
            let sched = ff.schedule(&inst).unwrap();
            let reference = reference_first_fit(&ff, &inst);
            prop_assert_eq!(sched.assignment(), reference.as_slice());
        }
    }
}

proptest! {
    /// The canonical content hash (the solution/feature cache key) is
    /// invariant under any permutation of the job list, the canonical
    /// forms compare equal, and remapping a canonical assignment back to
    /// the shuffled order round-trips through a valid schedule.
    #[test]
    fn canonical_hash_is_permutation_invariant(
        inst in arb_instance(30),
        seed in 0u64..1_000,
    ) {
        use busytime_core::memo::{canonical_hash, CanonicalInstance};

        // deterministic Fisher–Yates driven by the proptest-drawn seed
        let mut order: Vec<usize> = (0..inst.len()).collect();
        let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let shuffled = Instance::new(
            order.iter().map(|&i| inst.job(i)).collect(),
            inst.g(),
        );
        prop_assert_eq!(canonical_hash(&inst), canonical_hash(&shuffled));
        prop_assert_eq!(CanonicalInstance::of(&inst), CanonicalInstance::of(&shuffled));

        // a schedule computed on the original maps through canonical form
        // into a valid schedule of the shuffled copy
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        let canon = CanonicalInstance::of(&inst);
        let canonical_assign = canon.assignment_to_canonical(sched.assignment());
        let shuffled_assign =
            CanonicalInstance::of(&shuffled).assignment_to_original(&canonical_assign);
        let remapped = busytime_core::Schedule::from_assignment(shuffled_assign);
        prop_assert_eq!(remapped.validate(&shuffled), Ok(()));
        prop_assert_eq!(remapped.cost(&shuffled), sched.cost(&inst));
    }

    /// The canonical hash discriminates: nudging one job's end, or bumping
    /// `g`, changes the key (so permuted repeats hit, edits do not).
    #[test]
    fn canonical_hash_discriminates_edits(inst in arb_instance(30), pick in 0usize..64) {
        use busytime_core::memo::canonical_hash;

        let mut jobs: Vec<Interval> = inst.jobs().to_vec();
        let k = pick % jobs.len();
        jobs[k] = Interval::new(jobs[k].start, jobs[k].end + 1);
        let nudged = Instance::new(jobs, inst.g());
        prop_assert_ne!(canonical_hash(&inst), canonical_hash(&nudged));

        let regeared = Instance::new(inst.jobs().to_vec(), inst.g() + 1);
        prop_assert_ne!(canonical_hash(&inst), canonical_hash(&regeared));
    }
}

/// Busy sets by inserting every job, in job order, into its machine's
/// [`IntervalSet`]: the reference for the bucketed accounting.
fn reference_busy_sets(sched: &Schedule, inst: &Instance) -> Vec<IntervalSet> {
    let mut sets = vec![IntervalSet::new(); sched.machine_count()];
    for (job, &m) in sched.assignment().iter().enumerate() {
        sets[m].insert(inst.job(job));
    }
    sets
}

/// Validation as job lists per machine and one event sweep each, with the
/// bucketed check's order: job count, machine ids, then machines in id
/// order.
fn reference_validate(sched: &Schedule, inst: &Instance) -> Result<(), ScheduleViolation> {
    if sched.assignment().len() != inst.len() {
        return Err(ScheduleViolation::WrongJobCount {
            got: sched.assignment().len(),
            expected: inst.len(),
        });
    }
    for (job, &m) in sched.assignment().iter().enumerate() {
        if m >= sched.machine_count() {
            return Err(ScheduleViolation::MachineOutOfRange { job, machine: m });
        }
    }
    for (machine, jobs) in sched.machine_jobs().into_iter().enumerate() {
        if jobs.is_empty() {
            return Err(ScheduleViolation::EmptyMachine { machine });
        }
        let intervals: Vec<Interval> = jobs.iter().map(|&j| inst.job(j)).collect();
        let overlap = sweep::max_overlap(&intervals);
        if overlap > inst.g() as usize {
            return Err(ScheduleViolation::CapacityExceeded {
                machine,
                overlap,
                g: inst.g(),
            });
        }
    }
    Ok(())
}

/// A random instance with an unchecked assignment: random machine ids
/// (machines left without jobs are empty), or one of them pushed out of
/// range, or the last job unassigned, or FirstFit's feasible schedule.
/// Random ids at small `g` overload machines often.
fn arb_raw_schedule() -> impl Strategy<Value = (Instance, Schedule)> {
    (
        arb_instance(40),
        1usize..8,
        proptest::collection::vec(0usize..1_000, 40),
        0u8..6,
    )
        .prop_map(|(inst, machines, picks, mode)| {
            let n = inst.len();
            let mut assignment: Vec<usize> = picks[..n].iter().map(|&p| p % machines).collect();
            match mode {
                0 => assignment[picks[0] % n] = machines + picks[1] % 3,
                1 => {
                    assignment.pop();
                }
                2 => {
                    let sched = FirstFit::paper().schedule(&inst).unwrap();
                    return (inst, sched);
                }
                _ => {}
            }
            (inst, Schedule::from_raw_parts(assignment, machines))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bucketed accounting agrees with the per-machine reference on
    /// every schedule, feasible or not: `validate` names the identical
    /// violation, and wherever the ids are in range, `cost`,
    /// `machine_busy_sets` and `hull_cost` match the inserted busy sets.
    #[test]
    fn bucketed_accounting_matches_reference((inst, sched) in arb_raw_schedule()) {
        prop_assert_eq!(sched.validate(&inst), reference_validate(&sched, &inst));
        if sched.assignment().iter().all(|&m| m < sched.machine_count()) {
            let buckets = sched.machine_intervals(&inst);
            prop_assert_eq!(sched.validate_bucketed(&inst, &buckets), reference_validate(&sched, &inst));
            let sets = reference_busy_sets(&sched, &inst);
            let cost: i64 = sets.iter().map(IntervalSet::measure).sum();
            prop_assert_eq!(sched.cost(&inst), cost);
            prop_assert_eq!(buckets.cost(), cost);
            prop_assert_eq!(&sched.machine_busy_sets(&inst), &sets);
            let hull: i64 = sets.iter().filter_map(IntervalSet::hull).map(|h| h.len()).sum();
            prop_assert_eq!(sched.hull_cost(&inst), hull);
        }
    }
}

/// Renders a report with its wall-clock-only fields (phase timings, total)
/// cleared: everything left is required to be deterministic, so parallel
/// and sequential solves must agree on it byte for byte.
fn timeless_json(mut report: busytime_core::SolveReport) -> String {
    report.phases.clear();
    report.total = std::time::Duration::ZERO;
    report.to_json_line()
}

proptest! {
    /// The fork–join contract, end to end: one instance solved with the
    /// kernels forced sequential and solved inside fork–join contexts of
    /// widths 1, 2 and 4 renders byte-identical `SolveReport` JSON (modulo
    /// the cleared wall-clock fields) — parallelism trades time only,
    /// never the answer.
    #[test]
    fn parallel_and_sequential_reports_are_byte_identical(
        inst in arb_instance(40),
        seed in 0u64..100,
    ) {
        use busytime_core::pool::{intra, Executor};
        use busytime_core::solve::ParallelPolicy;
        use busytime_core::SolveRequest;

        // `Off` keeps the pipeline from entering its own context; the
        // test pins the width by entering one around the solve
        let sequential = timeless_json(
            SolveRequest::new(&inst)
                .seed(seed)
                .parallel(ParallelPolicy::Off)
                .solve()
                .unwrap(),
        );
        for width in [1usize, 2, 4] {
            let exec = Executor::new(width);
            let _ctx = intra::enter(&exec, width);
            let forked = timeless_json(
                SolveRequest::new(&inst)
                    .seed(seed)
                    .parallel(ParallelPolicy::Off)
                    .solve()
                    .unwrap(),
            );
            prop_assert_eq!(&forked, &sequential, "width {} diverged", width);
        }

        // on a connected instance decomposition has nothing to split: the
        // pipeline solves it undecomposed either way, to the same report
        let (connected, _) = inst.components().swap_remove(0);
        let report = |decompose: bool| {
            timeless_json(
                SolveRequest::new(&connected)
                    .seed(seed)
                    .decompose(decompose)
                    .parallel(ParallelPolicy::Off)
                    .solve()
                    .unwrap(),
            )
        };
        prop_assert_eq!(report(true), report(false));
    }

    /// An already-expired deadline cuts the solve at its first cooperative
    /// checkpoint — under fork–join exactly as it does sequentially: the
    /// incumbent is feasible, flagged `deadline_hit`, and byte-identical
    /// to the sequential cut (chunk cancellation never corrupts or
    /// reorders the merged result).
    #[test]
    fn zero_deadline_cut_is_stable_under_fork_join(inst in arb_instance(40)) {
        use busytime_core::pool::{intra, Executor};
        use busytime_core::solve::ParallelPolicy;
        use busytime_core::SolveRequest;

        let cut = || {
            SolveRequest::new(&inst)
                .deadline(std::time::Duration::ZERO)
                .parallel(ParallelPolicy::Off)
                .solve()
                .unwrap()
        };
        let sequential = cut();
        prop_assert!(sequential.deadline_hit);
        prop_assert_eq!(sequential.schedule.validate(&inst), Ok(()));
        let sequential = timeless_json(sequential);
        for width in [2usize, 4] {
            let exec = Executor::new(width);
            let _ctx = intra::enter(&exec, width);
            let forked = cut();
            prop_assert!(forked.deadline_hit);
            prop_assert_eq!(forked.schedule.validate(&inst), Ok(()));
            prop_assert_eq!(timeless_json(forked), sequential.clone(), "width {}", width);
        }
    }
}

/// Staged FirstFit is the job-major greedy pass reorganised machine by
/// machine, so on every lane count it must assign every job exactly as the
/// job-major reference does. The instances span at least three staged
/// blocks (1024 jobs each), so stages hand blocks downstream while the
/// stages above them are still packing. The fig4 tiles keep Theorem 2.4's
/// adversarial tie order (all jobs share one length, so input order is
/// processing order under `TieBreak::Input`).
#[test]
fn staged_first_fit_assigns_exactly_as_job_major() {
    use busytime_core::algo::{SortOrder, TieBreak};
    use busytime_core::pool::Executor;
    use busytime_instances::{fig4, Family, GeneratorSpec};

    const N: usize = 3 * 1024 + 100;
    let generated = |family: Family, g: u32| {
        let mut spec = GeneratorSpec::new(family);
        spec.n = N;
        spec.g = g;
        spec.seed = 7;
        spec.generate()
    };
    let tiled_fig4 = |g: u32| {
        let tile = fig4(g.max(2), 1000, 10).instance;
        let copies = N.div_ceil(tile.len());
        let jobs = (0..copies as i64)
            .flat_map(|k| tile.jobs().iter().map(move |iv| iv.shifted(k * 3000)))
            .collect();
        Instance::new(jobs, g)
    };
    let exec = Executor::new(4);
    let orders = [
        SortOrder::LongestFirst,
        SortOrder::ShortestFirst,
        SortOrder::Arrival,
    ];
    let ties = [
        TieBreak::Input,
        TieBreak::EarliestStart,
        TieBreak::Seeded(3),
    ];
    for (gi, g) in [1u32, 2, 3, 7].into_iter().enumerate() {
        let instances = [
            ("uniform", generated(Family::Uniform, g)),
            ("clique", generated(Family::Clique, g)),
            ("shifts", generated(Family::Shifts, g)),
            ("bounded", generated(Family::Bounded, g)),
            ("fig4", tiled_fig4(g)),
        ];
        for (family, inst) in &instances {
            assert!(inst.len() > 3 * 1024, "{family} must span three blocks");
            for (oi, &order) in orders.iter().enumerate() {
                for (ti, &tie) in ties.iter().enumerate() {
                    let ff = FirstFit { order, tie };
                    let reference = ff.schedule_job_major(inst);
                    // clique and shifts open hundreds of machines, so their
                    // passes are near quadratic: each order/tie pair runs
                    // on one lane count, rotating so that every order and
                    // every tie-break meets every lane count at each g, and
                    // every pair meets every lane count across the g sweep
                    let lanes: &[usize] = if matches!(*family, "clique" | "shifts") {
                        &[[1, 2, 4][(oi + ti + gi) % 3]]
                    } else {
                        &[1, 2, 4]
                    };
                    for &lanes in lanes {
                        let staged = ff.schedule_staged(inst, &exec, lanes);
                        assert_eq!(
                            staged.assignment(),
                            reference.assignment(),
                            "{family} g={g} {order:?}/{tie:?} on {lanes} lanes"
                        );
                    }
                }
            }
        }
    }
}
