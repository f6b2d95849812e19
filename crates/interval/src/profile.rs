//! [`OverlapProfile`]: an incrementally maintained step function of
//! active-interval counts with range-max queries.
//!
//! A machine in the busy-time scheduling problem may run at most `g` jobs at
//! any instant. FirstFit must therefore answer, per candidate machine,
//! *"would adding job `J` push the count above `g` anywhere on `J`?"* —
//! a range-max query over the machine's current count profile, followed by a
//! range-increment when the job is placed. With `s` steps in the profile
//! and `k` of them inside the range, a query costs `O(log s + k)` and an
//! add or remove `O(log s + B + k)` for the constant chunk size `B`; the
//! split of a full chunk, at most once per `B / 2` inserts into it, also
//! shifts the `O(s / B)` chunk entries.

use crate::interval::Interval;

/// Most steps one chunk holds (the `B` of the cost bounds). An insert that
/// overflows a chunk splits it into two halves.
///
/// `B` is a constant, not a function of the profile size: every splice
/// then moves at most `B` steps however long the horizon grows, and a
/// profile under `B` steps — every machine of a few-hundred-job record —
/// is a single chunk, whose chunk-level search is one comparison.
const CHUNK: usize = 128;

/// Dynamic count profile over doubled coordinates (see
/// [`Interval::dkey_lo`]): a step function `count: ℝ → ℕ` that is zero
/// outside the tracked region.
///
/// Steps are `(key, count)` pairs in strictly increasing key order; `(k, c)`
/// means the count is `c` on `[k, k')` where `k'` is the next key, the final
/// step is always zero, and counts before the first key are zero. The step
/// sequence is stored as consecutive sorted chunks. Chunk invariant: every
/// chunk is non-empty and holds at most `B` steps, its `head` is the key
/// of its first step, and the chunks concatenate to the step sequence. A
/// lookup binary-searches the chunk heads for its chunk, then the chunk
/// for its step; mutation splices one chunk, so an add never moves more
/// than `B` steps and churn allocates only when a chunk splits.
///
/// ```
/// use busytime_interval::{Interval, OverlapProfile};
/// let mut machine = OverlapProfile::new();
/// machine.add(&Interval::new(0, 10));
/// machine.add(&Interval::new(5, 15));
/// // a third job over the doubly-covered region busts parallelism g = 2…
/// assert!(!machine.can_add(&Interval::new(7, 8), 2));
/// // …but fits where only one job is active
/// assert!(machine.can_add(&Interval::new(11, 20), 2));
/// assert_eq!(machine.busy_measure(), 15);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OverlapProfile {
    /// The step sequence, cut into sorted runs of at most [`CHUNK`] steps.
    chunks: Vec<Chunk>,
    /// Number of intervals currently contributing to the profile.
    len: usize,
}

/// One run of consecutive steps.
#[derive(Clone, Debug)]
struct Chunk {
    /// Key of the first step, kept inline so the chunk-level search never
    /// dereferences a chunk it does not land on.
    head: i64,
    steps: Vec<(i64, u32)>,
}

impl OverlapProfile {
    /// An empty profile (count 0 everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk construction: the profile of a whole family in one event sort
    /// plus one linear pass that fills half-full chunks, instead of `n`
    /// incremental [`OverlapProfile::add`] calls. Produces exactly the steps
    /// the incremental route would hold — compacted, final entry zero.
    pub fn from_intervals(intervals: &[Interval]) -> OverlapProfile {
        let mut events: Vec<(i64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            events.push((iv.dkey_lo(), 1));
            events.push((iv.dkey_hi(), -1));
        }
        events.sort_unstable();
        let mut profile = OverlapProfile {
            len: intervals.len(),
            ..OverlapProfile::default()
        };
        let mut count = 0i64;
        let mut i = 0;
        while i < events.len() {
            let key = events[i].0;
            let mut delta = 0i64;
            while i < events.len() && events[i].0 == key {
                delta += events[i].1;
                i += 1;
            }
            if delta != 0 {
                count += delta;
                debug_assert!(count >= 0);
                // half-full chunks leave room for later adds before a split
                match profile.chunks.last_mut() {
                    Some(chunk) if chunk.steps.len() < CHUNK / 2 => {
                        chunk.steps.push((key, count as u32))
                    }
                    _ => profile.chunks.push(Chunk {
                        head: key,
                        steps: vec![(key, count as u32)],
                    }),
                }
            }
        }
        profile
    }

    /// Number of intervals added minus removed.
    pub fn interval_count(&self) -> usize {
        self.len
    }

    /// True iff the profile is identically zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of internal steps (diagnostic; proportional to memory).
    pub fn step_count(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.steps.len()).sum()
    }

    /// The step sequence in key order.
    fn steps(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.steps.iter().copied())
    }

    /// Position `(chunk, index)` of the last step with key `≤ dkey`, or
    /// `None` when `dkey` precedes every step: one search over the chunk
    /// heads, then one inside the chunk.
    fn floor(&self, dkey: i64) -> Option<(usize, usize)> {
        let c = self
            .chunks
            .partition_point(|chunk| chunk.head <= dkey)
            .checked_sub(1)?;
        // the chunk's head is ≤ dkey, so the in-chunk floor exists
        let i = self.chunks[c].steps.partition_point(|&(k, _)| k <= dkey) - 1;
        Some((c, i))
    }

    /// Count of active intervals at time `t` (a real tick).
    pub fn count_at(&self, t: i64) -> u32 {
        self.floor(2 * t)
            .map_or(0, |(c, i)| self.chunks[c].steps[i].1)
    }

    /// The maximum count over the closed interval `iv`, or the first count
    /// reaching `cap` (so a capacity check can stop at the first violation).
    fn max_in_capped(&self, iv: &Interval, cap: u32) -> u32 {
        let hi = iv.dkey_hi();
        let (first, mut i, mut best) = match self.floor(iv.dkey_lo()) {
            Some((c, i)) => (c, i + 1, self.chunks[c].steps[i].1),
            None => (0, 0, 0),
        };
        if best >= cap {
            return best;
        }
        for chunk in &self.chunks[first..] {
            for &(k, count) in &chunk.steps[i..] {
                if k >= hi {
                    return best;
                }
                best = best.max(count);
                if best >= cap {
                    return best;
                }
            }
            i = 0;
        }
        best
    }

    /// Maximum count over the closed interval `iv`.
    pub fn max_in(&self, iv: &Interval) -> u32 {
        self.max_in_capped(iv, u32::MAX)
    }

    /// True iff after adding `iv` every point of `iv` would have count ≤ `g`;
    /// i.e. the current max over `iv` is at most `g − 1`.
    pub fn can_add(&self, iv: &Interval, g: u32) -> bool {
        debug_assert!(g >= 1);
        self.max_in_capped(iv, g) < g
    }

    /// Ensures a step boundary exists exactly at `dkey`; returns its
    /// position. Splits the chunk the new step overflows.
    fn ensure_boundary(&mut self, dkey: i64) -> (usize, usize) {
        let (c, i, count) = match self.floor(dkey) {
            Some((c, i)) if self.chunks[c].steps[i].0 == dkey => return (c, i),
            Some((c, i)) => (c, i + 1, self.chunks[c].steps[i].1),
            None => {
                // a new first step: the first chunk's head moves down
                match self.chunks.first_mut() {
                    Some(chunk) => chunk.head = dkey,
                    None => self.chunks.push(Chunk {
                        head: dkey,
                        steps: Vec::new(),
                    }),
                }
                (0, 0, 0)
            }
        };
        let steps = &mut self.chunks[c].steps;
        steps.insert(i, (dkey, count));
        if steps.len() <= CHUNK {
            return (c, i);
        }
        let half = steps.len() / 2;
        let tail = steps.split_off(half);
        let head = tail[0].0;
        self.chunks.insert(c + 1, Chunk { head, steps: tail });
        if i < half {
            (c, i)
        } else {
            (c + 1, i - half)
        }
    }

    /// Ensures boundaries at both ends of `iv` and returns the position of
    /// the step at `iv.dkey_lo()`. The upper boundary goes first, so the
    /// returned position survives any split the lower one causes.
    fn ensure_span(&mut self, iv: &Interval) -> (usize, usize) {
        self.ensure_boundary(iv.dkey_hi());
        self.ensure_boundary(iv.dkey_lo())
    }

    /// Adds a closed interval: count += 1 on `iv`.
    pub fn add(&mut self, iv: &Interval) {
        self.add_weighted(iv, 1);
    }

    /// Adds a closed interval with weight `w`: count += w on `iv`. Used by
    /// the capacitated-demand extension where a job consumes `w ≤ g` units
    /// of a machine's parallelism.
    pub fn add_weighted(&mut self, iv: &Interval, w: u32) {
        let hi = iv.dkey_hi();
        let (mut c, mut i) = self.ensure_span(iv);
        // the step at `hi` exists, so the walk stops on it
        'walk: loop {
            for step in &mut self.chunks[c].steps[i..] {
                if step.0 >= hi {
                    break 'walk;
                }
                step.1 += w;
            }
            c += 1;
            i = 0;
        }
        self.len += 1;
    }

    /// True iff adding `iv` with weight `w` keeps the count ≤ `g` everywhere
    /// on `iv`.
    pub fn can_add_weighted(&self, iv: &Interval, w: u32, g: u32) -> bool {
        self.max_in(iv) + w <= g
    }

    /// Removes a previously added interval: count −= 1 on `iv`, then drops
    /// the boundaries in `[lo, hi]` that no longer change the count (equal
    /// to their predecessor, or leading zeros) — across chunk boundaries,
    /// deleting chunks that empty — to bound memory under churn.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the interval was not previously added —
    /// i.e. if any count in the range is already zero.
    pub fn remove(&mut self, iv: &Interval) {
        let hi = iv.dkey_hi();
        let (first, mut start) = self.ensure_span(iv);
        let mut prev = match (first, start) {
            (0, 0) => 0,
            (c, 0) => self.chunks[c - 1].steps.last().map_or(0, |step| step.1),
            (c, i) => self.chunks[c].steps[i - 1].1,
        };
        let mut c = first;
        let mut emptied = false;
        loop {
            let Chunk { head, steps: chunk } = &mut self.chunks[c];
            let (mut read, mut write) = (start, start);
            let mut reached_hi = false;
            while read < chunk.len() && !reached_hi {
                let (key, mut count) = chunk[read];
                reached_hi = key == hi;
                if !reached_hi {
                    debug_assert!(count > 0, "removing an interval that was never added");
                    count = count.saturating_sub(1);
                }
                if count != prev {
                    chunk[write] = (key, count);
                    write += 1;
                    prev = count;
                }
                read += 1;
            }
            chunk.drain(write..read);
            match chunk.first() {
                None => emptied = true,
                Some(step) => *head = step.0,
            }
            if reached_hi {
                break;
            }
            c += 1;
            start = 0;
        }
        if emptied {
            for k in (first..=c).rev() {
                if self.chunks[k].steps.is_empty() {
                    self.chunks.remove(k);
                }
            }
        }
        self.len = self.len.saturating_sub(1);
    }

    /// Total measure (in ticks) where the count is at least one — the
    /// machine's *busy time* if this profile tracks its jobs. Computed from
    /// doubled coordinates: a doubled cell `[2t, 2t+1)` contributes measure 0
    /// (it is the point `t`), while `[2t+1, 2t+2)` contributes 0 too — only
    /// whole-tick spans count, so we convert by halving rounded down.
    pub fn busy_measure(&self) -> i64 {
        let mut total = 0i64;
        let mut prev: Option<(i64, u32)> = None;
        for (key, count) in self.steps() {
            if let Some((from, active)) = prev {
                if active > 0 {
                    total += dkey_range_measure(from, key);
                }
            }
            prev = Some((key, count));
        }
        total
    }
}

/// Measure (in ticks) of the doubled half-open range `[lo, hi)`.
///
/// Doubled coordinates place the point `t` at cell `2t` and the open gap
/// `(t, t+1)` at cell `2t + 1`; each gap cell has measure 1, each point cell
/// measure 0. Hence the measure is the number of odd cells in `[lo, hi)`.
fn dkey_range_measure(lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    // f(x) = #odd integers below x (up to a constant); works for negatives
    // because div_euclid floors: f(hi) − f(lo) = #odd integers in [lo, hi).
    let f = |x: i64| x.div_euclid(2);
    f(hi) - f(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::new(s, c)
    }

    #[test]
    fn empty_profile() {
        let p = OverlapProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.count_at(0), 0);
        assert_eq!(p.max_in(&iv(-100, 100)), 0);
        assert!(p.can_add(&iv(0, 1), 1));
    }

    #[test]
    fn single_interval_counts() {
        let mut p = OverlapProfile::new();
        p.add(&iv(2, 5));
        assert_eq!(p.count_at(1), 0);
        assert_eq!(p.count_at(2), 1);
        assert_eq!(p.count_at(5), 1);
        assert_eq!(p.count_at(6), 0);
        assert_eq!(p.max_in(&iv(0, 10)), 1);
        assert_eq!(p.interval_count(), 1);
    }

    #[test]
    fn endpoint_touch_counts_two() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 1));
        p.add(&iv(1, 2));
        assert_eq!(p.count_at(1), 2);
        assert_eq!(p.max_in(&iv(0, 2)), 2);
        assert_eq!(p.max_in(&iv(0, 0)), 1);
        // can_add with g = 2 must fail anywhere covering t = 1
        assert!(!p.can_add(&iv(1, 1), 2));
        assert!(p.can_add(&iv(2, 3), 2));
    }

    #[test]
    fn capacity_gate_matches_paper_semantics() {
        // g = 2: a machine with two active jobs at some t of J rejects J
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 10));
        assert!(p.can_add(&iv(5, 15), 2));
        p.add(&iv(5, 15));
        assert!(!p.can_add(&iv(7, 8), 2)); // inside both
        assert!(p.can_add(&iv(11, 20), 2)); // overlaps only one
    }

    #[test]
    fn add_then_remove_restores() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 4));
        p.add(&iv(2, 6));
        p.remove(&iv(0, 4));
        assert_eq!(p.count_at(1), 0);
        assert_eq!(p.count_at(3), 1);
        p.remove(&iv(2, 6));
        assert!(p.is_empty());
        assert_eq!(p.max_in(&iv(-10, 10)), 0);
        // after compaction the vector should not grow unboundedly
        assert_eq!(p.step_count(), 0);
    }

    #[test]
    fn busy_measure_union_semantics() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 3));
        p.add(&iv(1, 4)); // union [0,4] measure 4
        assert_eq!(p.busy_measure(), 4);
        p.add(&iv(10, 12)); // + measure 2
        assert_eq!(p.busy_measure(), 6);
        p.remove(&iv(1, 4));
        assert_eq!(p.busy_measure(), 5);
    }

    #[test]
    fn busy_measure_touching() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 1));
        p.add(&iv(1, 2));
        assert_eq!(p.busy_measure(), 2);
    }

    #[test]
    fn busy_measure_point_job_is_zero() {
        let mut p = OverlapProfile::new();
        p.add(&iv(5, 5));
        assert_eq!(p.busy_measure(), 0);
        assert_eq!(p.count_at(5), 1);
    }

    #[test]
    fn max_in_partial_ranges() {
        let mut p = OverlapProfile::new();
        p.add(&iv(0, 2));
        p.add(&iv(1, 3));
        p.add(&iv(2, 4));
        assert_eq!(p.max_in(&iv(0, 0)), 1);
        assert_eq!(p.max_in(&iv(1, 1)), 2);
        assert_eq!(p.max_in(&iv(2, 2)), 3);
        assert_eq!(p.max_in(&iv(3, 4)), 2);
        assert_eq!(p.max_in(&iv(4, 4)), 1);
        assert_eq!(p.max_in(&iv(5, 9)), 0);
    }

    #[test]
    fn interleaved_add_remove_stress() {
        let mut p = OverlapProfile::new();
        let jobs: Vec<Interval> = (0..50).map(|i| iv(i, i + 10)).collect();
        for j in &jobs {
            p.add(j);
        }
        assert_eq!(p.max_in(&iv(0, 60)), 11); // closed intervals: 11 share a point
        for j in jobs.iter().step_by(2) {
            p.remove(j);
        }
        assert_eq!(p.interval_count(), 25);
        // counts halve roughly; max with every second interval of length 10 is 6
        assert_eq!(p.max_in(&iv(0, 60)), 6);
    }

    /// The `BTreeMap`-backed reference implementation the chunked profile
    /// replaced; the differential tests below check behavioural equality
    /// under random churn, step for step.
    #[derive(Default)]
    struct MapProfile {
        steps: std::collections::BTreeMap<i64, u32>,
    }

    impl MapProfile {
        fn value_at(&self, dkey: i64) -> u32 {
            self.steps.range(..=dkey).next_back().map_or(0, |(_, &c)| c)
        }

        fn ensure_boundary(&mut self, dkey: i64) {
            if !self.steps.contains_key(&dkey) {
                let v = self.value_at(dkey);
                self.steps.insert(dkey, v);
            }
        }

        fn add(&mut self, iv: &Interval) {
            self.ensure_boundary(iv.dkey_lo());
            self.ensure_boundary(iv.dkey_hi());
            for (_, c) in self.steps.range_mut(iv.dkey_lo()..iv.dkey_hi()) {
                *c += 1;
            }
        }

        fn remove(&mut self, iv: &Interval) {
            self.ensure_boundary(iv.dkey_lo());
            self.ensure_boundary(iv.dkey_hi());
            for (_, c) in self.steps.range_mut(iv.dkey_lo()..iv.dkey_hi()) {
                *c = c.saturating_sub(1);
            }
            let keys: Vec<i64> = self
                .steps
                .range(iv.dkey_lo()..=iv.dkey_hi())
                .map(|(&k, _)| k)
                .collect();
            for k in keys {
                let v = self.steps[&k];
                let prev = self.steps.range(..k).next_back().map_or(0, |(_, &c)| c);
                if prev == v {
                    self.steps.remove(&k);
                }
            }
        }

        fn max_in(&self, iv: &Interval) -> u32 {
            let entry = self.value_at(iv.dkey_lo());
            self.steps
                .range(iv.dkey_lo() + 1..iv.dkey_hi())
                .map(|(_, &c)| c)
                .fold(entry, u32::max)
        }

        fn steps(&self) -> Vec<(i64, u32)> {
            self.steps.iter().map(|(&k, &c)| (k, c)).collect()
        }
    }

    /// A SplitMix64 stream: deterministic, dependency-free test input.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Asserts the chunk invariant (non-empty chunks of at most `CHUNK`
    /// steps, heads matching first keys, keys strictly increasing) and
    /// returns the flattened step sequence.
    fn checked_steps(p: &OverlapProfile) -> Vec<(i64, u32)> {
        for Chunk { head, steps } in &p.chunks {
            assert!(!steps.is_empty() && steps.len() <= CHUNK, "{}", steps.len());
            assert_eq!(steps[0].0, *head);
        }
        let steps: Vec<(i64, u32)> = p.steps().collect();
        assert!(steps.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(steps.len(), p.step_count());
        steps
    }

    /// Random closed intervals with starts in `[0, range)` and lengths in
    /// `[0, max_len)`.
    fn family(next: &mut impl FnMut() -> u64, n: usize, range: u64, max_len: u64) -> Vec<Interval> {
        (0..n)
            .map(|_| {
                let s = (next() % range) as i64;
                iv(s, s + (next() % max_len) as i64)
            })
            .collect()
    }

    #[test]
    fn bulk_construction_matches_incremental_adds() {
        let mut next = splitmix(11);
        // small families stay in one chunk; large ones span dozens, with
        // keys spread far wider than a chunk
        let shapes = [(60, 50, 12), (600, 400, 20), (3000, 20_000, 40)];
        for (round, &(max_n, range, max_len)) in shapes.iter().cycle().take(60).enumerate() {
            let n = (next() % max_n) as usize;
            let family = family(&mut next, n, range, max_len);
            let mut bulk = OverlapProfile::from_intervals(&family);
            let mut incremental = OverlapProfile::new();
            for j in &family {
                incremental.add(j);
            }
            assert_eq!(
                checked_steps(&bulk),
                checked_steps(&incremental),
                "round {round}: {family:?}"
            );
            assert_eq!(bulk.interval_count(), incremental.interval_count());
            assert_eq!(bulk.busy_measure(), incremental.busy_measure());
            // the two layouts differ (bulk chunks start half full); churn
            // on both must still agree step for step
            for j in family.iter().step_by(2) {
                bulk.remove(j);
                incremental.remove(j);
            }
            for j in family.iter().step_by(3) {
                bulk.add(j);
                incremental.add(j);
            }
            assert_eq!(checked_steps(&bulk), checked_steps(&incremental));
        }
        // empty family
        let empty = OverlapProfile::from_intervals(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.step_count(), 0);
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Add(Interval),
        Remove(Interval),
    }

    /// Applies one operation to both profiles and compares the whole step
    /// sequence plus a probe query.
    fn apply_and_compare(
        chunked: &mut OverlapProfile,
        reference: &mut MapProfile,
        op: Op,
        live: usize,
    ) {
        let probe = match op {
            Op::Add(j) => {
                chunked.add(&j);
                reference.add(&j);
                j
            }
            Op::Remove(j) => {
                chunked.remove(&j);
                reference.remove(&j);
                j
            }
        };
        assert_eq!(checked_steps(chunked), reference.steps(), "after {op:?}");
        assert_eq!(chunked.max_in(&probe), reference.max_in(&probe));
        assert_eq!(
            chunked.count_at(probe.start),
            reference.value_at(probe.dkey_lo())
        );
        assert_eq!(chunked.interval_count(), live);
    }

    #[test]
    fn vec_profile_matches_btreemap_reference_under_churn() {
        let mut next = splitmix(7);
        // narrow keys (one chunk), then keys spread over ≫ CHUNK steps so
        // adds split chunks all along the horizon
        for (ops, range, max_len) in [(500, 40, 12), (3000, 12_000, 30)] {
            let mut chunked = OverlapProfile::new();
            let mut reference = MapProfile::default();
            let mut live: Vec<Interval> = Vec::new();
            for _ in 0..ops {
                if !live.is_empty() && next().is_multiple_of(3) {
                    let victim = live.swap_remove((next() % live.len() as u64) as usize);
                    apply_and_compare(&mut chunked, &mut reference, Op::Remove(victim), live.len());
                } else {
                    let job = family(&mut next, 1, range, max_len)[0];
                    live.push(job);
                    apply_and_compare(&mut chunked, &mut reference, Op::Add(job), live.len());
                }
            }
            if range > 1_000 {
                assert!(chunked.chunks.len() > 8, "{} chunks", chunked.chunks.len());
            }
            // removal runs in start order clear whole chunks, first a
            // middle stretch, then everything
            live.sort_by_key(|j| j.start);
            let mid = live.len() / 3;
            let run: Vec<Interval> = live.drain(mid..2 * mid).collect();
            let before = chunked.chunks.len();
            for (k, &j) in run.iter().enumerate() {
                let still_live = live.len() + run.len() - k - 1;
                apply_and_compare(&mut chunked, &mut reference, Op::Remove(j), still_live);
            }
            if range > 1_000 {
                assert!(chunked.chunks.len() < before, "no chunk emptied");
            }
            while let Some(j) = live.pop() {
                apply_and_compare(&mut chunked, &mut reference, Op::Remove(j), live.len());
            }
            assert!(chunked.chunks.is_empty());
        }
    }
}
