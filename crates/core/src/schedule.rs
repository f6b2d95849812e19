//! Schedules: assignments of jobs to machines, their cost and validation.

use busytime_interval::{span, sweep, Interval, IntervalSet};

use crate::instance::{Instance, JobId};

/// Index of a machine within a [`Schedule`]. Machine ids are dense:
/// `0..machine_count`.
pub type MachineId = usize;

/// An assignment of every job of an [`Instance`] to a machine.
///
/// Stored as `assignment[job] = machine`. The cost of a schedule is
/// `Σ_i span(J_i)` — each machine pays the measure of the union of its jobs'
/// intervals (its busy time; Section 1.1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    assignment: Vec<MachineId>,
    machine_count: usize,
}

/// A way in which a purported schedule fails validation; produced by
/// [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// The assignment vector length differs from the instance's job count.
    WrongJobCount {
        /// Number of entries in the assignment.
        got: usize,
        /// Number of jobs in the instance.
        expected: usize,
    },
    /// A machine id is out of the dense range `0..machine_count`.
    MachineOutOfRange {
        /// The offending job.
        job: JobId,
        /// Its machine id.
        machine: MachineId,
    },
    /// A machine id in `0..machine_count` has no jobs (ids must be dense).
    EmptyMachine {
        /// The unused machine id.
        machine: MachineId,
    },
    /// Some machine processes more than `g` jobs simultaneously.
    CapacityExceeded {
        /// The overloaded machine.
        machine: MachineId,
        /// The overlap reached.
        overlap: usize,
        /// The allowed parallelism.
        g: u32,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::WrongJobCount { got, expected } => {
                write!(f, "assignment covers {got} jobs, instance has {expected}")
            }
            ScheduleViolation::MachineOutOfRange { job, machine } => {
                write!(f, "job {job} assigned to out-of-range machine {machine}")
            }
            ScheduleViolation::EmptyMachine { machine } => {
                write!(f, "machine {machine} has no jobs (ids must be dense)")
            }
            ScheduleViolation::CapacityExceeded {
                machine,
                overlap,
                g,
            } => {
                write!(f, "machine {machine} runs {overlap} jobs at once (g = {g})")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

impl Schedule {
    /// Builds a schedule from an assignment vector, compacting machine ids
    /// to `0..machine_count` while preserving their relative numeric order.
    ///
    /// Order preservation matters: schedulers number machines in opening
    /// order, and the paper's analysis (Observation 2.2, Lemma 2.3) is
    /// stated over that order — [`crate::verify`] relies on it surviving
    /// construction.
    pub fn from_assignment(raw: Vec<MachineId>) -> Self {
        let mut ids: Vec<MachineId> = raw.clone();
        ids.sort_unstable();
        ids.dedup();
        let assignment = raw
            .into_iter()
            .map(|m| ids.binary_search(&m).expect("id present"))
            .collect();
        Schedule {
            machine_count: ids.len(),
            assignment,
        }
    }

    /// Builds a schedule from its parts as given: no compaction, so a job
    /// may name a machine outside `0..machine_count` and a machine may have
    /// no jobs. [`Schedule::validate`] reports both; the cost accessors
    /// panic on an out-of-range id. For assignments that arrive from
    /// outside a scheduler and must be checked before use.
    pub fn from_raw_parts(assignment: Vec<MachineId>, machine_count: usize) -> Self {
        Schedule {
            assignment,
            machine_count,
        }
    }

    /// The machine of each job.
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    /// The machine of job `id`.
    pub fn machine_of(&self, id: JobId) -> MachineId {
        self.assignment[id]
    }

    /// Number of machines used.
    pub fn machine_count(&self) -> usize {
        self.machine_count
    }

    /// Job ids grouped by machine.
    pub fn machine_jobs(&self) -> Vec<Vec<JobId>> {
        let mut groups = vec![Vec::new(); self.machine_count];
        for (job, &m) in self.assignment.iter().enumerate() {
            groups[m].push(job);
        }
        groups
    }

    /// Every job's interval grouped by machine, each machine's sorted by
    /// start: the bucketing [`Schedule::cost`], [`Schedule::validate`],
    /// [`Schedule::hull_cost`] and [`Schedule::machine_busy_sets`] read.
    /// Build it once to ask several of them.
    ///
    /// # Panics
    ///
    /// Panics if a job names a machine outside `0..machine_count`, or the
    /// assignment covers more jobs than `inst` has.
    pub fn machine_intervals(&self, inst: &Instance) -> MachineIntervals {
        MachineIntervals::new(self, inst)
    }

    /// Busy set (union of job intervals) of each machine.
    pub fn machine_busy_sets(&self, inst: &Instance) -> Vec<IntervalSet> {
        let buckets = self.machine_intervals(inst);
        (0..self.machine_count)
            .map(|m| IntervalSet::from_intervals(buckets.machine(m).iter().copied()))
            .collect()
    }

    /// Busy time of one machine: `span(J_i)`.
    pub fn machine_cost(&self, inst: &Instance, machine: MachineId) -> i64 {
        let jobs: Vec<Interval> = self
            .assignment
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == machine)
            .map(|(j, _)| inst.job(j))
            .collect();
        span(&jobs)
    }

    /// Total busy time — the objective `Σ_i span(J_i)`.
    ///
    /// ```
    /// use busytime_core::{Instance, Schedule};
    /// let inst = Instance::from_pairs([(0, 4), (2, 6), (10, 12)], 2);
    /// // all three on one machine: union [0,6] ∪ [10,12] → 6 + 2
    /// let sched = Schedule::from_assignment(vec![0, 0, 0]);
    /// assert_eq!(sched.cost(&inst), 8);
    /// ```
    pub fn cost(&self, inst: &Instance) -> i64 {
        self.machine_intervals(inst).cost()
    }

    /// Total *hull* cost `Σ_i (max c − min s)`: what the schedule would cost
    /// if machines could not idle inside their busy interval. Diagnostic —
    /// equals [`Schedule::cost`] after [`Schedule::normalize_contiguous`].
    pub fn hull_cost(&self, inst: &Instance) -> i64 {
        let buckets = self.machine_intervals(inst);
        (0..self.machine_count)
            .filter_map(|m| {
                let jobs = buckets.machine(m);
                let end = jobs.iter().map(|iv| iv.end).max()?;
                Some(end - jobs[0].start)
            })
            .sum()
    }

    /// Splits every machine whose busy period is disconnected into one
    /// machine per maximal busy interval. Cost-preserving (the paper's
    /// "w.l.o.g. each machine is busy along a contiguous interval",
    /// Section 1.1); the result satisfies `hull_cost == cost`.
    pub fn normalize_contiguous(&self, inst: &Instance) -> Schedule {
        let mut raw = vec![0usize; self.assignment.len()];
        let mut next = 0usize;
        for jobs in self.machine_jobs() {
            let intervals: Vec<Interval> = jobs.iter().map(|&j| inst.job(j)).collect();
            let comps = sweep::connected_components(&intervals);
            for comp in comps {
                for local in comp {
                    raw[jobs[local]] = next;
                }
                next += 1;
            }
        }
        Schedule::from_assignment(raw)
    }

    /// Checks that the schedule is feasible for `inst`: complete assignment,
    /// dense machine ids, and no machine ever exceeding parallelism `g`.
    pub fn validate(&self, inst: &Instance) -> Result<(), ScheduleViolation> {
        self.check_assignment(inst)?;
        self.machine_intervals(inst).check_machines(inst.g())
    }

    /// [`Schedule::validate`] reading `buckets`, this schedule's
    /// [`Schedule::machine_intervals`] over `inst`, instead of building
    /// its own: the same checks in the same order, with the same
    /// violations.
    pub fn validate_bucketed(
        &self,
        inst: &Instance,
        buckets: &MachineIntervals,
    ) -> Result<(), ScheduleViolation> {
        debug_assert_eq!(buckets.intervals.len(), self.assignment.len());
        debug_assert_eq!(buckets.machine_count(), self.machine_count);
        self.check_assignment(inst)?;
        buckets.check_machines(inst.g())
    }

    /// The checks that need no bucketing: one entry per job, and every
    /// machine id in range.
    fn check_assignment(&self, inst: &Instance) -> Result<(), ScheduleViolation> {
        if self.assignment.len() != inst.len() {
            return Err(ScheduleViolation::WrongJobCount {
                got: self.assignment.len(),
                expected: inst.len(),
            });
        }
        for (job, &m) in self.assignment.iter().enumerate() {
            if m >= self.machine_count {
                return Err(ScheduleViolation::MachineOutOfRange { job, machine: m });
            }
        }
        Ok(())
    }
}

/// The jobs of a [`Schedule`] bucketed by machine: one counting sort of
/// the assignment into per-machine ranges of a single interval buffer,
/// then one sort of each range by start. Every question about a machine's
/// busy set becomes a linear sweep over its range, so accounting for a
/// schedule costs `O(n log n)` however fragmented its machines are.
#[derive(Clone, Debug)]
pub struct MachineIntervals {
    /// Machine `m`'s intervals are `intervals[offsets[m]..offsets[m + 1]]`.
    offsets: Vec<usize>,
    intervals: Vec<Interval>,
}

impl MachineIntervals {
    fn new(schedule: &Schedule, inst: &Instance) -> Self {
        let machines = schedule.machine_count;
        let mut offsets = vec![0usize; machines + 1];
        for &m in &schedule.assignment {
            offsets[m + 1] += 1;
        }
        for m in 0..machines {
            offsets[m + 1] += offsets[m];
        }
        let mut next = offsets[..machines].to_vec();
        let mut intervals = vec![Interval { start: 0, end: 0 }; schedule.assignment.len()];
        for (job, &m) in schedule.assignment.iter().enumerate() {
            intervals[next[m]] = inst.job(job);
            next[m] += 1;
        }
        for m in 0..machines {
            intervals[offsets[m]..offsets[m + 1]].sort_unstable();
        }
        MachineIntervals { offsets, intervals }
    }

    /// Number of machines.
    pub(crate) fn machine_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The intervals of `machine`'s jobs, sorted by `(start, end)`.
    pub(crate) fn machine(&self, machine: MachineId) -> &[Interval] {
        &self.intervals[self.offsets[machine]..self.offsets[machine + 1]]
    }

    /// Total busy time `Σ_i span(J_i)`: one merge sweep per machine.
    pub fn cost(&self) -> i64 {
        (0..self.machine_count())
            .map(|m| sorted_span(self.machine(m)))
            .sum()
    }

    /// The first machine, in id order, that has no jobs or runs more than
    /// `g` of them at once.
    fn check_machines(&self, g: u32) -> Result<(), ScheduleViolation> {
        let mut ends: Vec<i64> = Vec::new();
        for machine in 0..self.machine_count() {
            let jobs = self.machine(machine);
            if jobs.is_empty() {
                return Err(ScheduleViolation::EmptyMachine { machine });
            }
            // at most g jobs cannot overload the machine: skip the sort
            if jobs.len() <= g as usize {
                continue;
            }
            let overlap = sorted_max_overlap(jobs, &mut ends);
            if overlap > g as usize {
                return Err(ScheduleViolation::CapacityExceeded {
                    machine,
                    overlap,
                    g,
                });
            }
        }
        Ok(())
    }
}

/// `span` of intervals sorted by start: the measure of their union.
/// Touching intervals merge, as in [`IntervalSet`]; it measures the same.
fn sorted_span(jobs: &[Interval]) -> i64 {
    let Some((first, rest)) = jobs.split_first() else {
        return 0;
    };
    let (mut start, mut end) = (first.start, first.end);
    let mut total = 0;
    for iv in rest {
        if iv.start > end {
            total += end - start;
            (start, end) = (iv.start, iv.end);
        } else {
            end = end.max(iv.end);
        }
    }
    total + end - start
}

/// [`sweep::max_overlap`] of intervals sorted by start, with `ends` as
/// scratch. Closed intervals: the most active at once is reached at some
/// start `s`, where every earlier-starting interval is active unless it
/// ended before `s`.
fn sorted_max_overlap(jobs: &[Interval], ends: &mut Vec<i64>) -> usize {
    ends.clear();
    ends.extend(jobs.iter().map(|iv| iv.end));
    ends.sort_unstable();
    // an interval ending before `jobs[i].start` started before it, so
    // `ended <= i` throughout
    let mut ended = 0;
    let mut best = 0;
    for (i, iv) in jobs.iter().enumerate() {
        while ends[ended] < iv.start {
            ended += 1;
        }
        best = best.max(i + 1 - ended);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::from_pairs([(0, 4), (2, 6), (8, 10), (9, 12)], 2)
    }

    #[test]
    fn dense_renumbering_preserves_order() {
        let s = Schedule::from_assignment(vec![7, 7, 3, 9]);
        // ids compact to ranks: 3 → 0, 7 → 1, 9 → 2
        assert_eq!(s.assignment(), &[1, 1, 0, 2]);
        assert_eq!(s.machine_count(), 3);
        assert_eq!(s.machine_of(3), 2);
    }

    #[test]
    fn cost_union_per_machine() {
        let s = Schedule::from_assignment(vec![0, 0, 1, 1]);
        // machine 0: [0,4] ∪ [2,6] = [0,6] → 6; machine 1: [8,10] ∪ [9,12] = [8,12] → 4
        assert_eq!(s.cost(&inst()), 10);
        assert_eq!(s.machine_cost(&inst(), 0), 6);
        assert_eq!(s.machine_cost(&inst(), 1), 4);
    }

    #[test]
    fn gap_on_machine_costs_nothing() {
        let s = Schedule::from_assignment(vec![0, 0, 0, 0]);
        // all on one machine: union = [0,6] ∪ [8,12] → 6 + 4 = 10, hull = 12
        assert_eq!(s.cost(&inst()), 10);
        assert_eq!(s.hull_cost(&inst()), 12);
    }

    #[test]
    fn normalize_splits_disconnected_machines() {
        let s = Schedule::from_assignment(vec![0, 0, 0, 0]);
        let norm = s.normalize_contiguous(&inst());
        assert_eq!(norm.machine_count(), 2);
        assert_eq!(norm.cost(&inst()), s.cost(&inst()));
        assert_eq!(norm.hull_cost(&inst()), norm.cost(&inst()));
        norm.validate(&inst()).unwrap();
    }

    #[test]
    fn validate_accepts_feasible() {
        let s = Schedule::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(s.validate(&inst()), Ok(()));
    }

    #[test]
    fn validate_rejects_capacity() {
        // g = 1 forbids co-scheduling overlapping jobs
        let tight = Instance::from_pairs([(0, 4), (2, 6)], 1);
        let s = Schedule::from_assignment(vec![0, 0]);
        match s.validate(&tight) {
            Err(ScheduleViolation::CapacityExceeded {
                machine: 0,
                overlap: 2,
                g: 1,
            }) => {}
            other => panic!("expected capacity violation, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let s = Schedule::from_assignment(vec![0, 0]);
        assert!(matches!(
            s.validate(&inst()),
            Err(ScheduleViolation::WrongJobCount {
                got: 2,
                expected: 4
            })
        ));
    }

    #[test]
    fn capacity_check_counts_endpoint_touch() {
        let touch = Instance::from_pairs([(0, 5), (5, 9)], 1);
        let together = Schedule::from_assignment(vec![0, 0]);
        assert!(together.validate(&touch).is_err());
        let apart = Schedule::from_assignment(vec![0, 1]);
        assert!(apart.validate(&touch).is_ok());
    }

    #[test]
    fn violation_messages_render() {
        let v = ScheduleViolation::CapacityExceeded {
            machine: 3,
            overlap: 5,
            g: 2,
        };
        assert!(v.to_string().contains("machine 3"));
        let v = ScheduleViolation::EmptyMachine { machine: 1 };
        assert!(v.to_string().contains("machine 1"));
    }

    #[test]
    fn machine_jobs_groups() {
        let s = Schedule::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(s.machine_jobs(), vec![vec![0, 2], vec![1, 3]]);
    }
}
