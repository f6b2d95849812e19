//! Baseline schedulers: the machine-minimizing coloring scheduler from the
//! paper's introduction, plus heuristics used in ablation experiments.

use std::borrow::Cow;

use busytime_graph::IntervalGraph;
use busytime_interval::OverlapProfile;

use crate::algo::{Scheduler, SchedulerError};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::machine::MachineLoad;
use crate::schedule::Schedule;

/// The polynomially optimal *machine-count* scheduler of Section 1.1:
/// optimally color the interval graph (ω colors), then pack every `g`
/// consecutive color classes onto one machine — `⌈ω/g⌉` machines, the
/// minimum possible.
///
/// Its *busy time* carries no guarantee; experiments use it as the natural
/// "consolidate onto fewest machines" baseline that busy-time-aware
/// algorithms beat (the paper's motivation for the new objective).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinMachines;

impl Scheduler for MinMachines {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("MinMachines")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let graph = IntervalGraph::new(inst.jobs());
        let (colors, _) = graph.optimal_coloring();
        let g = inst.g() as usize;
        let raw: Vec<usize> = colors.iter().map(|&c| c as usize / g).collect();
        Ok(Schedule::from_assignment(raw))
    }
}

/// NextFit in arrival (input) order without any sorting — the weakest
/// sensible baseline; shows what the paper's sort step buys.
#[derive(Clone, Copy, Debug, Default)]
pub struct NextFitArrival;

impl Scheduler for NextFitArrival {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("NextFitArrival")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let g = inst.g();
        let mut raw = vec![0usize; inst.len()];
        // only the open machine's count profile is ever consulted
        let mut current = OverlapProfile::new();
        let mut machine = 0usize;
        for (id, slot) in raw.iter_mut().enumerate() {
            let iv = inst.job(id);
            if !current.is_empty() && !current.can_add(&iv, g) {
                machine += 1;
                current = OverlapProfile::new();
            }
            current.add(&iv);
            *slot = machine;
        }
        if inst.is_empty() {
            return Ok(Schedule::from_assignment(Vec::new()));
        }
        Ok(Schedule::from_assignment(raw))
    }
}

/// BestFit: like FirstFit (longest job first) but each job goes to the
/// feasible machine whose busy time grows the *least* (ties: lowest index);
/// a new machine opens only when no machine fits. A natural "smarter greedy"
/// whose worst case is nevertheless not better than FirstFit's — exercised
/// in the comparison experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct BestFit;

impl Scheduler for BestFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("BestFit")
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let g = inst.g();
        let mut order: Vec<usize> = (0..inst.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(inst.job(i).len()));
        let mut machines: Vec<MachineLoad> = Vec::new();
        let mut raw = vec![0usize; inst.len()];
        for id in order {
            let iv = inst.job(id);
            let best = machines
                .iter()
                .enumerate()
                .filter(|(_, m)| m.can_fit(&iv, g))
                .min_by_key(|(idx, m)| (m.busy_increase(&iv), *idx))
                .map(|(idx, _)| idx);
            let slot = best.unwrap_or_else(|| {
                machines.push(MachineLoad::new());
                machines.len() - 1
            });
            machines[slot].push(id, &iv);
            raw[id] = slot;
        }
        Ok(Schedule::from_assignment(raw))
    }
}

/// FirstFit order but a *random* feasible machine is chosen (seeded,
/// deterministic); isolates how much FirstFit's lowest-index rule matters.
#[derive(Clone, Copy, Debug)]
pub struct RandomFit {
    /// PRNG seed (SplitMix64 stream).
    pub seed: u64,
}

impl RandomFit {
    /// Creates a seeded RandomFit.
    pub fn new(seed: u64) -> Self {
        RandomFit { seed }
    }
}

impl Scheduler for RandomFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("RandomFit[seed{}]", self.seed))
    }

    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let g = inst.g();
        let mut order: Vec<usize> = (0..inst.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(inst.job(i).len()));
        let mut machines: Vec<OverlapProfile> = Vec::new();
        let mut raw = vec![0usize; inst.len()];
        let mut state = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut feasible: Vec<usize> = Vec::new();
        for id in order {
            let iv = inst.job(id);
            feasible.clear();
            feasible.extend(
                machines
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.can_add(&iv, g))
                    .map(|(idx, _)| idx),
            );
            let slot = if feasible.is_empty() {
                machines.push(OverlapProfile::new());
                machines.len() - 1
            } else {
                feasible[(next() % feasible.len() as u64) as usize]
            };
            machines[slot].add(&iv);
            raw[id] = slot;
        }
        Ok(Schedule::from_assignment(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_interval::sweep;

    fn dense_instance() -> Instance {
        Instance::from_pairs(
            [
                (0, 6),
                (1, 7),
                (2, 9),
                (4, 11),
                (5, 12),
                (8, 14),
                (10, 15),
                (0, 3),
                (12, 15),
            ],
            2,
        )
    }

    #[test]
    fn min_machines_uses_ceil_omega_over_g() {
        let inst = dense_instance();
        let omega = sweep::max_overlap(inst.jobs());
        let sched = MinMachines.schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.machine_count(), omega.div_ceil(inst.g() as usize));
    }

    #[test]
    fn min_machines_is_minimum_possible() {
        // no feasible schedule can use fewer than ⌈ω/g⌉ machines: at the
        // peak, ω jobs are active and each machine hosts at most g of them
        let inst = dense_instance();
        let omega = sweep::max_overlap(inst.jobs());
        let lower = omega.div_ceil(inst.g() as usize);
        for s in [
            MinMachines.schedule(&inst).unwrap(),
            BestFit.schedule(&inst).unwrap(),
        ] {
            assert!(s.machine_count() >= lower);
        }
    }

    #[test]
    fn next_fit_arrival_feasible() {
        let inst = dense_instance();
        let sched = NextFitArrival.schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn best_fit_feasible_and_no_worse_than_trivial() {
        let inst = dense_instance();
        let sched = BestFit.schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        // trivially, one machine per job costs total_len
        assert!(sched.cost(&inst) <= inst.total_len());
    }

    #[test]
    fn best_fit_prefers_zero_growth() {
        // a short job inside an already-busy window must join that machine
        let inst = Instance::from_pairs([(0, 10), (2, 4), (20, 30)], 2);
        let sched = BestFit.schedule(&inst).unwrap();
        assert_eq!(sched.machine_of(1), sched.machine_of(0));
    }

    #[test]
    fn random_fit_deterministic_per_seed() {
        let inst = dense_instance();
        let a = RandomFit::new(1).schedule(&inst).unwrap();
        let b = RandomFit::new(1).schedule(&inst).unwrap();
        assert_eq!(a, b);
        a.validate(&inst).unwrap();
    }

    #[test]
    fn all_baselines_handle_empty() {
        let inst = Instance::new(vec![], 4);
        for cost in [
            MinMachines.schedule(&inst).unwrap().cost(&inst),
            NextFitArrival.schedule(&inst).unwrap().cost(&inst),
            BestFit.schedule(&inst).unwrap().cost(&inst),
            RandomFit::new(0).schedule(&inst).unwrap().cost(&inst),
        ] {
            assert_eq!(cost, 0);
        }
    }
}
