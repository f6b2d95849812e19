//! Algorithm FirstFit (Section 2.1): the 4-approximation for general
//! instances.
//!
//! 1. Sort the jobs in non-increasing order of length.
//! 2. Assign each job to the *first* (lowest-indexed) machine that can
//!    process it — i.e. that runs at most `g − 1` jobs at every `t ∈ J` —
//!    opening a new machine when none fits.
//!
//! The paper's analysis (Theorems 2.1, 2.4, 2.5) places the approximation
//! ratio between 3 and 4. Ties between equal-length jobs are broken by a
//! configurable [`TieBreak`]; Theorem 2.4's lower-bound family exploits an
//! adversarial tie order, realized here by [`TieBreak::Input`] plus a
//! crafted input permutation (see `busytime-instances::adversarial`).
//! [`SortOrder`] variants other than [`SortOrder::LongestFirst`] exist for
//! the ablation experiment (E11) and carry **no** approximation guarantee.
//!
//! # Two loops, one assignment
//!
//! Step 2 reads *job-major*: take the next job, try machines 0, 1, … in
//! turn. The same assignment also comes out *machine-major*: stage `m`
//! (machine `m`) packs the jobs that reach it in processing order and
//! passes the ones it rejects, still in order, to stage `m + 1`. A job
//! reaches stage `m` exactly when machines `0..m` rejected it, and machine
//! `m` then holds exactly the earlier jobs it accepted, so each stage sees
//! the state the job-major loop would show it. Stages only depend on their
//! upstream's output, so they pipeline: a stage works on one block of its
//! input while the stage before it produces the next. Records of at least
//! [`JOB_THRESHOLD`] jobs take this staged path on a caller-participating
//! fork ([`Executor::fork_lanes`]) when an intra context is live, so a
//! record being served uses the worker it runs on plus any idle one.
//! Smaller records, and records solved with no second lane to offer, keep
//! the job-major loop: the hand-off between stages costs more than it
//! saves on small records, and on one lane the staged pass is slower on
//! dense records.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use busytime_interval::{Interval, OverlapProfile};

use crate::algo::{Scheduler, SchedulerError};
use crate::cancel::CancelToken;
use crate::instance::Instance;
use crate::pool::intra::{self, JOB_THRESHOLD};
use crate::pool::Executor;
use crate::schedule::Schedule;

/// Primary ordering of jobs before the greedy pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Non-increasing length — the paper's algorithm.
    LongestFirst,
    /// Non-decreasing length — ablation only.
    ShortestFirst,
    /// Input order, no sorting — ablation only.
    Arrival,
}

/// Secondary ordering among equal-length jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieBreak {
    /// Stable: preserve input order (lets callers hand-craft adversarial
    /// orders, as Theorem 2.4 requires).
    Input,
    /// Earliest start first.
    EarliestStart,
    /// Deterministic pseudo-random shuffle with the given seed.
    Seeded(u64),
}

/// The FirstFit scheduler.
///
/// ```
/// use busytime_core::{algo::{FirstFit, Scheduler}, Instance};
/// // three mutually overlapping jobs, g = 2: one must open a second machine
/// let inst = Instance::from_pairs([(0, 10), (1, 11), (2, 12)], 2);
/// let schedule = FirstFit::paper().schedule(&inst).unwrap();
/// assert_eq!(schedule.machine_count(), 2);
/// assert_eq!(schedule.cost(&inst), 11 + 10); // [0,11] and [2,12]
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FirstFit {
    /// Primary sort of the greedy pass.
    pub order: SortOrder,
    /// Tie-break among equal primary keys.
    pub tie: TieBreak,
}

impl FirstFit {
    /// The algorithm exactly as in Section 2.1: longest job first, input
    /// order among ties.
    pub fn paper() -> Self {
        FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::Input,
        }
    }

    /// Longest-first with a seeded random tie-break (for averaging out
    /// adversarial orders in experiments).
    pub fn seeded(seed: u64) -> Self {
        FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::Seeded(seed),
        }
    }

    /// The processing order of job ids this configuration induces.
    pub fn job_order(&self, inst: &Instance) -> Vec<usize> {
        let mut ids = Vec::new();
        self.job_order_into(inst, &mut ids);
        ids
    }

    /// The job-major greedy pass, whatever the instance size: the loop
    /// the staged pass is differential-tested against.
    pub fn schedule_job_major(&self, inst: &Instance) -> Schedule {
        crate::pool::scratch::with(|arena| {
            self.job_order_into(inst, &mut arena.ids);
            Schedule::from_assignment(job_major(inst, &arena.ids))
        })
    }

    /// The machine-major staged pass, whatever the instance size, on up to
    /// `lanes` lanes of `exec` (the calling thread is one of them). The
    /// assignment is the job-major one at every lane count.
    pub fn schedule_staged(&self, inst: &Instance, exec: &Executor, lanes: usize) -> Schedule {
        crate::pool::scratch::with(|arena| {
            self.job_order_into(inst, &mut arena.ids);
            Schedule::from_assignment(staged(inst, &arena.ids, exec, lanes.max(1)))
        })
    }

    /// [`FirstFit::job_order`] into a caller-supplied buffer (cleared
    /// first) — the greedy pass stages its order in per-thread scratch so
    /// batched solves allocate no order vector per record.
    fn job_order_into(&self, inst: &Instance, ids: &mut Vec<usize>) {
        ids.clear();
        ids.extend(0..inst.len());
        if let TieBreak::Seeded(seed) = self.tie {
            shuffle(ids, seed);
        }
        if let TieBreak::EarliestStart = self.tie {
            ids.sort_by_key(|&i| inst.job(i).start);
        }
        match self.order {
            SortOrder::LongestFirst => ids.sort_by_key(|&i| std::cmp::Reverse(inst.job(i).len())),
            SortOrder::ShortestFirst => ids.sort_by_key(|&i| inst.job(i).len()),
            SortOrder::Arrival => {}
        }
    }
}

impl Scheduler for FirstFit {
    fn name(&self) -> Cow<'static, str> {
        let order = match self.order {
            SortOrder::LongestFirst => "longest",
            SortOrder::ShortestFirst => "shortest",
            SortOrder::Arrival => "arrival",
        };
        let tie = match self.tie {
            TieBreak::Input => String::from("input"),
            TieBreak::EarliestStart => String::from("earliest"),
            TieBreak::Seeded(s) => format!("seed{s}"),
        };
        Cow::Owned(format!("FirstFit[{order},{tie}]"))
    }

    /// Staged on the live intra context's lanes from [`JOB_THRESHOLD`]
    /// jobs up; job-major below that, and whenever no context is live (no
    /// second lane could join, and one lane alone is slower staged on
    /// dense records).
    fn schedule_with(
        &self,
        inst: &Instance,
        _cancel: &CancelToken,
    ) -> Result<Schedule, SchedulerError> {
        let raw = crate::pool::scratch::with(|arena| {
            self.job_order_into(inst, &mut arena.ids);
            match intra::active() {
                Some((exec, width)) if inst.len() >= JOB_THRESHOLD => {
                    staged(inst, &arena.ids, &exec, width)
                }
                _ => job_major(inst, &arena.ids),
            }
        });
        Ok(Schedule::from_assignment(raw))
    }
}

/// The job-major loop: each job in `order` goes to the first machine
/// whose count profile admits it. The profile is all the pass keeps per
/// machine, since fitting is the only question it asks.
fn job_major(inst: &Instance, order: &[usize]) -> Vec<usize> {
    let g = inst.g();
    let mut machines: Vec<OverlapProfile> = Vec::new();
    let mut raw = vec![0usize; inst.len()];
    for &id in order {
        let iv = inst.job(id);
        let slot = machines
            .iter()
            .position(|m| m.can_add(&iv, g))
            .unwrap_or_else(|| {
                machines.push(OverlapProfile::new());
                machines.len() - 1
            });
        machines[slot].add(&iv);
        raw[id] = slot;
    }
    raw
}

/// Jobs one stage claims at a time. Constant, so the claim lock is taken
/// once per thousand or so jobs however large the record, and a stage
/// downstream can start after a block or two upstream.
const BLOCK: usize = 1024;

/// A job travelling down the stages: its interval rides along with its
/// id, so a stage reads its input in order instead of gathering each
/// interval from the instance again.
type Job = (Interval, usize);

/// The machine-major pass (see the [module docs](self)) over `order` on
/// up to `lanes` lanes of `exec`, the calling thread being one of them.
///
/// Jobs move in *segments*: stage 0 cuts the order into blocks, and a
/// stage packs a segment in place, keeping only its rejects, then passes
/// the segment itself downstream. A job is never copied between stages;
/// only segments that have shrunk below half a block are merged.
fn staged(inst: &Instance, order: &[usize], exec: &Executor, lanes: usize) -> Vec<usize> {
    let pipeline = Pipeline {
        inst,
        order,
        board: Mutex::new(Board {
            stages: vec![Stage::default()],
            first_open: 0,
            raw: vec![0; inst.len()],
            waiting: 0,
            aborted: false,
        }),
        moved: Condvar::new(),
    };
    exec.fork_lanes(lanes, || pipeline.lane());
    pipeline
        .board
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .raw
}

/// The stages' shared state. A lane holds its lock only to claim a block
/// or hand one back, never while it packs.
struct Pipeline<'a> {
    inst: &'a Instance,
    /// Stage 0's input: the whole processing order.
    order: &'a [usize],
    board: Mutex<Board>,
    /// Signalled when a claimed block is handed back.
    moved: Condvar,
}

struct Board {
    /// Stage `m` packs machine `m`; a stage is added when the last one
    /// first rejects a job.
    stages: Vec<Stage>,
    /// Stages below this one are finished: their input is complete and
    /// packed. Its own input is therefore complete too.
    first_open: usize,
    /// `raw[id]` is the machine of job `id` once a stage accepted it.
    raw: Vec<usize>,
    /// Lanes parked on `moved`.
    waiting: usize,
    /// A lane panicked while packing: the others stop.
    aborted: bool,
}

#[derive(Default)]
struct Stage {
    /// The machine's count profile; moved out while a lane packs it.
    machine: OverlapProfile,
    /// Segments rejected upstream and not yet claimed (stages above 0).
    queue: VecDeque<Vec<Job>>,
    /// Jobs in `queue`.
    queued: usize,
    /// Stage 0's next position in the processing order.
    cursor: usize,
    claimed: bool,
}

enum Claim {
    /// Pack the claimed block onto this stage's machine: the segments put
    /// in the lane's block, plus this range of the order for stage 0.
    Block(usize, OverlapProfile, std::ops::Range<usize>),
    /// Nothing is claimable until another lane hands a block back.
    Wait,
    Done,
}

impl Pipeline<'_> {
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One lane: claims blocks, packs them and hands them back until every
    /// stage is finished. The calling thread alone can run the pass to the
    /// end: a lane waits only while another lane holds a block.
    fn lane(&self) {
        let g = self.inst.g();
        let (mut block, mut accepted) = (Vec::new(), Vec::new());
        let mut board = self.lock();
        loop {
            if board.aborted {
                return;
            }
            match self.claim(&mut board, &mut block) {
                Claim::Block(m, mut machine, fresh) => {
                    drop(board);
                    let abort = AbortOnUnwind(self);
                    if !fresh.is_empty() {
                        let ids = &self.order[fresh];
                        block.push(ids.iter().map(|&id| (self.inst.job(id), id)).collect());
                    }
                    accepted.clear();
                    for segment in &mut block {
                        segment.retain(|&(iv, id)| {
                            let fits = machine.can_add(&iv, g);
                            if fits {
                                machine.add(&iv);
                                accepted.push(id);
                            }
                            !fits
                        });
                    }
                    std::mem::forget(abort);
                    board = self.lock();
                    board.hand_back(m, machine, &accepted, &mut block);
                    if board.waiting > 0 {
                        self.moved.notify_all();
                    }
                }
                Claim::Wait => {
                    board.waiting += 1;
                    board = self
                        .moved
                        .wait(board)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    board.waiting -= 1;
                }
                Claim::Done => return,
            }
        }
    }

    /// Claims a block of the lowest stage that has one, finishing stages
    /// on the way. A stage whose input is complete (the first open one)
    /// may claim a short last block; any other stage waits for a full one.
    /// Lowest first keeps the upstream stages, the pipeline's critical
    /// path, moving.
    fn claim(&self, board: &mut Board, block: &mut Vec<Vec<Job>>) -> Claim {
        let mut m = board.first_open;
        while m < board.stages.len() {
            let complete = m == board.first_open;
            let stage = &mut board.stages[m];
            if !stage.claimed {
                let available = if m == 0 {
                    self.order.len() - stage.cursor
                } else {
                    stage.queued
                };
                if complete && available == 0 {
                    board.first_open += 1;
                    m += 1;
                    continue;
                }
                if available >= BLOCK || (complete && available > 0) {
                    let mut fresh = 0..0;
                    if m == 0 {
                        fresh = stage.cursor..stage.cursor + available.min(BLOCK);
                        stage.cursor = fresh.end;
                    } else {
                        // whole segments, at least a block's worth
                        let mut taken = 0;
                        while taken < BLOCK {
                            let Some(segment) = stage.queue.pop_front() else {
                                break;
                            };
                            taken += segment.len();
                            block.push(segment);
                        }
                        stage.queued -= taken;
                    }
                    stage.claimed = true;
                    return Claim::Block(m, std::mem::take(&mut stage.machine), fresh);
                }
            }
            m += 1;
        }
        if board.first_open == board.stages.len() {
            Claim::Done
        } else {
            Claim::Wait
        }
    }
}

impl Board {
    /// Returns stage `m`'s machine after packing a block: records the
    /// accepted jobs and moves the packed segments, which now hold only
    /// rejects, in order, downstream. A segment that has shrunk below half
    /// a block is merged into the one queued before it while that stays
    /// within a block, so segments never outgrow a block.
    fn hand_back(
        &mut self,
        m: usize,
        machine: OverlapProfile,
        accepted: &[usize],
        block: &mut Vec<Vec<Job>>,
    ) {
        let stage = &mut self.stages[m];
        stage.machine = machine;
        stage.claimed = false;
        for &id in accepted {
            self.raw[id] = m;
        }
        if block.iter().all(Vec::is_empty) {
            block.clear();
            return;
        }
        if m + 1 == self.stages.len() {
            self.stages.push(Stage::default());
        }
        let next = &mut self.stages[m + 1];
        for segment in block.drain(..) {
            next.queued += segment.len();
            match next.queue.back_mut() {
                _ if segment.is_empty() => {}
                Some(last) if segment.len() < BLOCK / 2 && last.len() + segment.len() <= BLOCK => {
                    last.extend_from_slice(&segment)
                }
                _ => next.queue.push_back(segment),
            }
        }
    }
}

/// Armed while a lane packs outside the lock: a panic there leaves its
/// stage claimed for good, so on unwind it stops every lane instead of
/// letting them wait for that block forever.
struct AbortOnUnwind<'p, 'a>(&'p Pipeline<'a>);

impl Drop for AbortOnUnwind<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().aborted = true;
        self.0.moved.notify_all();
    }
}

/// Fisher–Yates with a SplitMix64 stream — deterministic, dependency-free.
fn shuffle(ids: &mut [usize], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..ids.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    #[test]
    fn longest_first_order() {
        let inst = Instance::from_pairs([(0, 1), (0, 5), (0, 3)], 2);
        let order = FirstFit::paper().job_order(&inst);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn stable_ties_preserve_input() {
        let inst = Instance::from_pairs([(0, 2), (5, 7), (10, 12)], 2);
        let order = FirstFit::paper().job_order(&inst);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn disjoint_jobs_share_one_machine() {
        // FirstFit packs non-overlapping jobs onto machine 0
        let inst = Instance::from_pairs([(0, 2), (3, 5), (6, 8)], 1);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 1);
        assert_eq!(sched.cost(&inst), 6);
    }

    #[test]
    fn capacity_forces_second_machine() {
        let inst = Instance::from_pairs([(0, 10), (0, 10), (0, 10)], 2);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.machine_count(), 2);
        assert_eq!(sched.cost(&inst), 20);
    }

    #[test]
    fn respects_four_opt_via_lower_bound() {
        let inst = Instance::from_pairs(
            [(0, 6), (1, 7), (2, 9), (4, 11), (5, 12), (8, 14), (10, 15)],
            2,
        );
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        sched.validate(&inst).unwrap();
        assert!(sched.cost(&inst) <= 4 * bounds::lower_bound(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 0);
        assert_eq!(sched.cost(&inst), 0);
    }

    #[test]
    fn seeded_shuffle_is_deterministic() {
        let inst = Instance::from_pairs([(0, 2); 10], 2);
        let a = FirstFit::seeded(42).job_order(&inst);
        let b = FirstFit::seeded(42).job_order(&inst);
        let c = FirstFit::seeded(43).job_order(&inst);
        assert_eq!(a, b);
        assert_ne!(a, c); // overwhelmingly likely for 10! orders
    }

    #[test]
    fn ablation_orders_differ() {
        let inst = Instance::from_pairs([(0, 1), (0, 5), (0, 3)], 2);
        let shortest = FirstFit {
            order: SortOrder::ShortestFirst,
            tie: TieBreak::Input,
        };
        assert_eq!(shortest.job_order(&inst), vec![0, 2, 1]);
        let arrival = FirstFit {
            order: SortOrder::Arrival,
            tie: TieBreak::Input,
        };
        assert_eq!(arrival.job_order(&inst), vec![0, 1, 2]);
    }

    #[test]
    fn earliest_start_tiebreak() {
        // equal lengths: order by start
        let inst = Instance::from_pairs([(5, 7), (0, 2), (3, 5)], 2);
        let ff = FirstFit {
            order: SortOrder::LongestFirst,
            tie: TieBreak::EarliestStart,
        };
        assert_eq!(ff.job_order(&inst), vec![1, 2, 0]);
    }

    #[test]
    fn first_fit_prefers_lowest_index() {
        // two disjoint machines could host the third job; FirstFit picks 0
        let inst = Instance::from_pairs([(0, 4), (10, 14), (20, 24)], 1);
        let sched = FirstFit::paper().schedule(&inst).unwrap();
        assert_eq!(sched.machine_count(), 1);
    }

    #[test]
    fn names_reflect_parameters() {
        assert_eq!(FirstFit::paper().name(), "FirstFit[longest,input]");
        assert_eq!(FirstFit::seeded(7).name(), "FirstFit[longest,seed7]");
    }
}
