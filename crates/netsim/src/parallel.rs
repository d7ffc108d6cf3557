//! Parallel file transfer (§5.1): multiple class files stream
//! concurrently, sharing fixed bandwidth fairly.
//!
//! The engine is a fluid fair-sharing simulator: while `n` streams are
//! active each receives `1/n` of the link. Classes start in schedule
//! order when their dependency byte-thresholds are met (and a slot under
//! the concurrent-file limit is free); once started, a class transfers
//! to completion without preemption. A method invoked before its class
//! was scheduled triggers a **demand fetch** (the paper's misprediction
//! correction): the class starts immediately if a slot is free,
//! otherwise it is queued to transfer next.
//!
//! Each event costs O(active streams). Unit boundaries are precomputed
//! cumulative ends, and the bytes delivered by the dependencies of the
//! next scheduled class are a running sum over the finished ones plus
//! the progress of the active ones: queued and unstarted classes have
//! delivered nothing.

use std::collections::VecDeque;

use crate::engine::TransferEngine;
use crate::link::Link;
use crate::schedule::ParallelSchedule;
use crate::unit::ClassUnits;

/// Fixed-point scale for fractional service accounting (progress is
/// tracked in `cycle / SCALE` units so unequal bandwidth shares stay
/// exact enough to never reorder events by more than a cycle).
const SCALE: u128 = 1 << 32;

/// What to simulate up to.
enum Stop {
    AtCycle(u64),
    UnitArrived(usize, usize),
    AllDone,
}

/// The parallel-transfer engine.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    cpb: u128,
    limit: usize,
    /// Per class, the cumulative byte offset at which each unit
    /// completes (`ends[c][i]` is [`ClassUnits::boundary`]`(i)`); the
    /// last entry is the class total.
    ends: Vec<Vec<u64>>,
    class_order: Vec<usize>,
    /// `pos[c]` is the position of class `c` in `class_order`.
    pos: Vec<usize>,
    thresholds: Vec<u64>,
    next_scheduled: usize,
    /// Bytes of the finished classes at schedule positions below
    /// `next_scheduled`.
    done_dep_bytes: u64,
    clock: u64,
    started: Vec<bool>,
    /// Service received, in `cycle * SCALE` of dedicated-bandwidth time.
    progress: Vec<u128>,
    next_unit: Vec<usize>,
    /// The service at which `next_unit` arrives (`u128::MAX` once the
    /// class has finished).
    next_need: Vec<u128>,
    arrivals: Vec<Vec<Option<u64>>>,
    active: Vec<usize>,
    /// Reused per-event copy of `active`.
    snapshot: Vec<usize>,
    queue: VecDeque<usize>,
    completed: usize,
    last_arrival: u64,
}

impl ParallelEngine {
    /// Creates an engine over `units` with the given `schedule` and
    /// concurrent-file `limit` (use `usize::MAX` for unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero or the schedule's start order is not a
    /// permutation of the classes.
    #[must_use]
    pub fn new(
        link: Link,
        units: Vec<ClassUnits>,
        schedule: &ParallelSchedule,
        limit: usize,
    ) -> Self {
        assert!(limit > 0, "at least one concurrent transfer is required");
        assert_eq!(
            schedule.class_order.len(),
            units.len(),
            "schedule must cover all classes"
        );
        let n = units.len();
        let mut pos = vec![usize::MAX; n];
        for (k, &c) in schedule.class_order.iter().enumerate() {
            assert!(
                c < n && pos[c] == usize::MAX,
                "schedule must cover all classes"
            );
            pos[c] = k;
        }
        let ends: Vec<Vec<u64>> = units
            .iter()
            .map(|u| {
                u.sizes()
                    .scan(0, |acc, size| {
                        *acc += size;
                        Some(*acc)
                    })
                    .collect()
            })
            .collect();
        let cpb = u128::from(link.cycles_per_byte);
        let mut engine = ParallelEngine {
            cpb,
            limit,
            arrivals: ends.iter().map(|e| vec![None; e.len()]).collect(),
            class_order: schedule.class_order.clone(),
            pos,
            thresholds: schedule.thresholds.clone(),
            next_scheduled: 0,
            done_dep_bytes: 0,
            clock: 0,
            started: vec![false; n],
            progress: vec![0; n],
            next_unit: vec![0; n],
            next_need: ends
                .iter()
                .map(|e| u128::from(e[0]) * cpb * SCALE)
                .collect(),
            active: Vec::new(),
            snapshot: Vec::new(),
            queue: VecDeque::new(),
            completed: 0,
            last_arrival: 0,
            ends,
        };
        engine.release_triggers();
        engine.fill_slots();
        engine
    }

    /// Total bytes of `class`.
    fn total(&self, class: usize) -> u64 {
        *self.ends[class]
            .last()
            .expect("every class has a prelude unit")
    }

    /// Bytes of `class` delivered so far.
    fn delivered(&self, class: usize) -> u64 {
        let bytes = self.progress[class] / SCALE / self.cpb;
        (bytes as u64).min(self.total(class))
    }

    /// Progress of the dependencies of the next scheduled class (the
    /// classes earlier in the start order): the bytes they have
    /// delivered, and how many of them are streaming. Finished ones are
    /// summed incrementally; queued and unstarted ones have delivered
    /// nothing, so only the active streams are visited.
    fn dep_progress(&self) -> (u64, u128) {
        let k = self.next_scheduled;
        let mut bytes = self.done_dep_bytes;
        let mut streaming = 0;
        for &c in &self.active {
            if self.pos[c] < k {
                bytes += self.delivered(c);
                streaming += 1;
            }
        }
        (bytes, streaming)
    }

    /// Moves the schedule cursor one position on, folding a finished
    /// class there into the dependency sum.
    fn step_schedule(&mut self) {
        let c = self.class_order[self.next_scheduled];
        if self.next_unit[c] == self.ends[c].len() {
            self.done_dep_bytes += self.total(c);
        }
        self.next_scheduled += 1;
    }

    /// Releases every scheduled class whose threshold is met.
    fn release_triggers(&mut self) {
        while self.next_scheduled < self.class_order.len() {
            let c = self.class_order[self.next_scheduled];
            if self.started[c] {
                self.step_schedule();
                continue;
            }
            if self.dep_progress().0 >= self.thresholds[self.next_scheduled] {
                self.started[c] = true;
                self.queue.push_back(c);
                self.step_schedule();
            } else {
                break;
            }
        }
    }

    /// Moves queued classes into free bandwidth slots.
    fn fill_slots(&mut self) {
        while self.active.len() < self.limit {
            let Some(c) = self.queue.pop_front() else {
                break;
            };
            self.active.push(c);
            // Zero-byte units at the head complete instantly.
            self.cross_boundaries(c);
        }
    }

    /// Records arrivals for every boundary `class`'s progress has
    /// passed; removes the class from the active set when finished.
    fn cross_boundaries(&mut self, class: usize) {
        let ends = &self.ends[class];
        while self.progress[class] >= self.next_need[class] {
            self.arrivals[class][self.next_unit[class]] = Some(self.clock);
            self.last_arrival = self.last_arrival.max(self.clock);
            self.next_unit[class] += 1;
            self.next_need[class] = ends
                .get(self.next_unit[class])
                .map_or(u128::MAX, |&end| u128::from(end) * self.cpb * SCALE);
        }
        if self.next_unit[class] == ends.len() {
            if let Some(i) = self.active.iter().position(|&c| c == class) {
                self.active.swap_remove(i);
                self.completed += 1;
                if self.pos[class] < self.next_scheduled {
                    self.done_dep_bytes += self.total(class);
                }
            }
        }
    }

    fn all_done(&self) -> bool {
        self.completed == self.ends.len()
    }

    /// The fluid event loop. Each event costs O(active streams).
    fn advance(&mut self, stop: &Stop) {
        loop {
            self.release_triggers();
            self.fill_slots();
            match stop {
                Stop::AtCycle(t) if self.clock >= *t => return,
                Stop::UnitArrived(c, u) if self.arrivals[*c][*u].is_some() => return,
                Stop::AllDone if self.all_done() => return,
                _ => {}
            }
            if self.all_done() {
                return;
            }
            if self.active.is_empty() {
                // Nothing is flowing: either a scheduled class is gated
                // on a threshold that can no longer grow (release it),
                // or only an AtCycle stop remains.
                if self.next_scheduled < self.class_order.len() {
                    let c = self.class_order[self.next_scheduled];
                    if !self.started[c] {
                        self.started[c] = true;
                        self.queue.push_back(c);
                    }
                    self.step_schedule();
                    continue;
                }
                // All classes started and none active => all done.
                debug_assert!(self.all_done());
                return;
            }

            let n = u128::from(self.active.len() as u64);
            let mut dt: u128 = u128::MAX;

            // Unit-boundary events.
            for &c in &self.active {
                let gap = self.next_need[c].saturating_sub(self.progress[c]);
                let t = (gap * n).div_ceil(SCALE).max(1);
                dt = dt.min(t);
            }

            // Dependency-threshold event for the next scheduled class.
            if self.next_scheduled < self.class_order.len() {
                let t_bytes = self.thresholds[self.next_scheduled];
                let (cur, dep_active) = self.dep_progress();
                if cur < t_bytes && dep_active > 0 {
                    let need_bytes = u128::from(t_bytes - cur);
                    let t = (need_bytes * self.cpb * n).div_ceil(dep_active).max(1);
                    dt = dt.min(t);
                }
            }

            // Stop-point event.
            if let Stop::AtCycle(t) = stop {
                dt = dt.min(u128::from(t.saturating_sub(self.clock)).max(1));
            }

            debug_assert!(dt < u128::MAX, "active streams always produce an event");
            let dt64 = u64::try_from(dt.min(u128::from(u64::MAX))).expect("bounded");
            self.clock += dt64;
            let gain = u128::from(dt64) * SCALE / n;
            let mut snapshot = std::mem::take(&mut self.snapshot);
            snapshot.clone_from(&self.active);
            for &c in &snapshot {
                self.progress[c] += gain;
                if self.progress[c] >= self.next_need[c] {
                    self.cross_boundaries(c);
                }
            }
            self.snapshot = snapshot;
        }
    }

    /// The recorded arrival of a unit, if the simulation has reached it
    /// (read-only; use [`TransferEngine::unit_ready`] to simulate
    /// forward).
    #[must_use]
    pub fn recorded_arrival(&self, class: usize, unit: usize) -> Option<u64> {
        self.arrivals[class][unit]
    }

    /// Immediately requests `class` (misprediction correction): starts
    /// it if a slot is free, otherwise queues it to transfer next.
    fn demand_fetch(&mut self, class: usize) {
        if self.started[class] {
            return;
        }
        self.started[class] = true;
        // "it is queued up to be transfered next"
        self.queue.push_front(class);
        self.fill_slots();
    }
}

impl TransferEngine for ParallelEngine {
    fn unit_ready(&mut self, class: usize, unit: usize, now: u64) -> u64 {
        self.advance(&Stop::AtCycle(now));
        if let Some(t) = self.arrivals[class][unit] {
            return t;
        }
        if !self.started[class] {
            self.demand_fetch(class);
        }
        self.advance(&Stop::UnitArrived(class, unit));
        self.arrivals[class][unit].expect("advance ran to arrival")
    }

    fn finish_time(&mut self) -> u64 {
        self.advance(&Stop::AllDone);
        self.last_arrival
    }

    fn total_bytes(&self) -> u64 {
        (0..self.ends.len()).map(|c| self.total(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(sizes: &[(u64, &[u64])]) -> Vec<ClassUnits> {
        sizes
            .iter()
            .map(|&(prelude, methods)| ClassUnits {
                prelude,
                methods: methods.to_vec(),
                trailing: 0,
            })
            .collect()
    }

    fn schedule_for(units: &[ClassUnits], thresholds: Vec<u64>) -> ParallelSchedule {
        ParallelSchedule {
            class_order: (0..units.len()).collect(),
            thresholds,
        }
    }

    const LINK: Link = Link {
        cycles_per_byte: 10,
        name: "test",
    };

    #[test]
    fn single_stream_arrivals_are_exact() {
        let u = units(&[(100, &[50, 50])]);
        let s = schedule_for(&u, vec![0]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        assert_eq!(e.unit_ready(0, 0, 0), 1000);
        assert_eq!(e.unit_ready(0, 1, 0), 1500);
        assert_eq!(e.unit_ready(0, 2, 0), 2000);
        assert_eq!(e.finish_time(), 2000);
    }

    #[test]
    fn two_streams_share_bandwidth_fairly() {
        // Both start at 0 with threshold 0; each 100 bytes; shared link
        // delivers both at cycle 100*10*2 = 2000.
        let u = units(&[(100, &[]), (100, &[])]);
        let s = schedule_for(&u, vec![0, 0]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        let a = e.unit_ready(0, 0, 0);
        let b = e.unit_ready(1, 0, 0);
        assert_eq!(a, 2000);
        assert_eq!(b, 2000);
    }

    #[test]
    fn limit_one_serializes_transfers() {
        let u = units(&[(100, &[]), (100, &[])]);
        let s = schedule_for(&u, vec![0, 0]);
        let mut e = ParallelEngine::new(LINK, u, &s, 1);
        assert_eq!(e.unit_ready(0, 0, 0), 1000);
        assert_eq!(e.unit_ready(1, 0, 0), 2000);
    }

    #[test]
    fn threshold_delays_second_class() {
        // Class 1 may start only after 60 bytes of class 0 have arrived.
        let u = units(&[(100, &[]), (40, &[])]);
        let s = schedule_for(&u, vec![0, 60]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        // class 0 alone until cycle 600; then both share. class 0 has 40
        // left -> +800 cycles => 1400. class 1: 40 bytes shared the whole
        // way => also 1400.
        assert_eq!(e.unit_ready(0, 0, 0), 1400);
        assert_eq!(e.unit_ready(1, 0, 0), 1400);
    }

    #[test]
    fn demand_fetch_starts_unscheduled_class() {
        // Class 1's threshold is past class 0 completion; a demand at
        // cycle 0 overrides it.
        let u = units(&[(100, &[]), (50, &[])]);
        let s = schedule_for(&u, vec![0, 100]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        let t = e.unit_ready(1, 0, 0);
        // both share from 0: class 1 needs 50 bytes at half rate = 1000
        assert_eq!(t, 1000);
    }

    #[test]
    fn demand_fetch_queues_when_limit_reached() {
        let u = units(&[(100, &[]), (100, &[]), (50, &[])]);
        let s = schedule_for(&u, vec![0, 0, u64::MAX]);
        let mut e = ParallelEngine::new(LINK, u, &s, 2);
        // classes 0 and 1 fill both slots until 2000; class 2 demanded at
        // cycle 0 must wait, then gets full bandwidth: 2000 + 500.
        let t = e.unit_ready(2, 0, 0);
        assert_eq!(t, 2500);
    }

    #[test]
    fn finish_time_covers_everything() {
        let u = units(&[(100, &[20, 30]), (50, &[10])]);
        let total: u64 = u.iter().map(ClassUnits::total).sum();
        let s = schedule_for(&u, vec![0, 0]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        // Work-conserving fair sharing finishes all bytes exactly when a
        // single stream would.
        assert_eq!(e.finish_time(), LINK.cycles_for(total));
        assert_eq!(e.total_bytes(), total);
    }

    #[test]
    fn queries_in_the_past_return_recorded_arrivals() {
        let u = units(&[(100, &[50]), (10, &[])]);
        let s = schedule_for(&u, vec![0, 0]);
        let mut e = ParallelEngine::new(LINK, u, &s, 4);
        let t1 = e.unit_ready(1, 0, 0);
        // Re-query later: same answer.
        assert_eq!(e.unit_ready(1, 0, t1 + 10_000), t1);
    }

    #[test]
    fn capped_thresholds_never_deadlock() {
        // Threshold demands more bytes than dependencies hold; the
        // engine force-releases when the pipe drains.
        let u = units(&[(10, &[]), (10, &[])]);
        let s = schedule_for(&u, vec![0, 10]); // cap at dep capacity
        let mut e = ParallelEngine::new(LINK, u, &s, 1);
        assert_eq!(e.unit_ready(1, 0, 0), 200);
    }
}

/// The engine as it was before the per-event work was made
/// O(active streams): every event rescanned the dependency prefix of the
/// schedule and every unit boundary. Kept verbatim as the oracle of the
/// differential test below.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use crate::engine::TransferEngine;
    use crate::link::Link;
    use crate::schedule::ParallelSchedule;
    use crate::unit::ClassUnits;

    /// Fixed-point scale for fractional service accounting (progress is
    /// tracked in `cycle / SCALE` units so unequal bandwidth shares stay
    /// exact enough to never reorder events by more than a cycle).
    const SCALE: u128 = 1 << 32;

    /// What to simulate up to.
    enum Stop {
        AtCycle(u64),
        UnitArrived(usize, usize),
        AllDone,
    }

    /// The parallel-transfer engine.
    #[derive(Debug, Clone)]
    pub struct ParallelEngine {
        cpb: u128,
        limit: usize,
        units: Vec<ClassUnits>,
        class_order: Vec<usize>,
        thresholds: Vec<u64>,
        next_scheduled: usize,
        clock: u64,
        started: Vec<bool>,
        /// Service received, in `cycle * SCALE` of dedicated-bandwidth time.
        progress: Vec<u128>,
        next_unit: Vec<usize>,
        arrivals: Vec<Vec<Option<u64>>>,
        active: Vec<usize>,
        queue: VecDeque<usize>,
        completed: usize,
        last_arrival: u64,
    }

    impl ParallelEngine {
        /// Creates an engine over `units` with the given `schedule` and
        /// concurrent-file `limit` (use `usize::MAX` for unlimited).
        ///
        /// # Panics
        ///
        /// Panics if `limit` is zero or the schedule does not cover the
        /// units.
        #[must_use]
        pub fn new(
            link: Link,
            units: Vec<ClassUnits>,
            schedule: &ParallelSchedule,
            limit: usize,
        ) -> Self {
            assert!(limit > 0, "at least one concurrent transfer is required");
            assert_eq!(
                schedule.class_order.len(),
                units.len(),
                "schedule must cover all classes"
            );
            let n = units.len();
            let mut engine = ParallelEngine {
                cpb: u128::from(link.cycles_per_byte),
                limit,
                arrivals: units.iter().map(|u| vec![None; u.unit_count()]).collect(),
                units,
                class_order: schedule.class_order.clone(),
                thresholds: schedule.thresholds.clone(),
                next_scheduled: 0,
                clock: 0,
                started: vec![false; n],
                progress: vec![0; n],
                next_unit: vec![0; n],
                active: Vec::new(),
                queue: VecDeque::new(),
                completed: 0,
                last_arrival: 0,
            };
            engine.release_triggers();
            engine.fill_slots();
            engine
        }

        /// Bytes of `class` delivered so far.
        fn delivered(&self, class: usize) -> u64 {
            let bytes = self.progress[class] / SCALE / self.cpb;
            (bytes as u64).min(self.units[class].total())
        }

        /// Total bytes delivered from the dependencies of schedule position
        /// `k` (classes earlier in the start order).
        fn dep_delivered(&self, k: usize) -> u64 {
            self.class_order[..k]
                .iter()
                .map(|&c| self.delivered(c))
                .sum()
        }

        /// Releases every scheduled class whose threshold is met.
        fn release_triggers(&mut self) {
            while self.next_scheduled < self.class_order.len() {
                let c = self.class_order[self.next_scheduled];
                if self.started[c] {
                    self.next_scheduled += 1;
                    continue;
                }
                if self.dep_delivered(self.next_scheduled) >= self.thresholds[self.next_scheduled] {
                    self.started[c] = true;
                    self.queue.push_back(c);
                    self.next_scheduled += 1;
                } else {
                    break;
                }
            }
        }

        /// Moves queued classes into free bandwidth slots.
        fn fill_slots(&mut self) {
            while self.active.len() < self.limit {
                let Some(c) = self.queue.pop_front() else {
                    break;
                };
                self.active.push(c);
                // Zero-byte units at the head complete instantly.
                self.cross_boundaries(c);
            }
        }

        /// Records arrivals for every boundary `class`'s progress has
        /// passed; removes the class from the active set when finished.
        fn cross_boundaries(&mut self, class: usize) {
            let u = &self.units[class];
            while self.next_unit[class] < u.unit_count() {
                let need = u128::from(u.boundary(self.next_unit[class])) * self.cpb * SCALE;
                if self.progress[class] >= need {
                    self.arrivals[class][self.next_unit[class]] = Some(self.clock);
                    self.last_arrival = self.last_arrival.max(self.clock);
                    self.next_unit[class] += 1;
                } else {
                    break;
                }
            }
            if self.next_unit[class] == u.unit_count() {
                if let Some(i) = self.active.iter().position(|&c| c == class) {
                    self.active.swap_remove(i);
                    self.completed += 1;
                }
            }
        }

        fn all_done(&self) -> bool {
            self.completed == self.units.len()
        }

        /// The fluid event loop.
        fn advance(&mut self, stop: &Stop) {
            loop {
                self.release_triggers();
                self.fill_slots();
                match stop {
                    Stop::AtCycle(t) if self.clock >= *t => return,
                    Stop::UnitArrived(c, u) if self.arrivals[*c][*u].is_some() => return,
                    Stop::AllDone if self.all_done() => return,
                    _ => {}
                }
                if self.all_done() {
                    return;
                }
                if self.active.is_empty() {
                    // Nothing is flowing: either a scheduled class is gated
                    // on a threshold that can no longer grow (release it),
                    // or only an AtCycle stop remains.
                    if self.next_scheduled < self.class_order.len() {
                        let c = self.class_order[self.next_scheduled];
                        if !self.started[c] {
                            self.started[c] = true;
                            self.queue.push_back(c);
                        }
                        self.next_scheduled += 1;
                        continue;
                    }
                    // All classes started and none active => all done.
                    debug_assert!(self.all_done());
                    return;
                }

                let n = u128::from(self.active.len() as u64);
                let mut dt: u128 = u128::MAX;

                // Unit-boundary events.
                for &c in &self.active {
                    let u = &self.units[c];
                    let need = u128::from(u.boundary(self.next_unit[c])) * self.cpb * SCALE;
                    let gap = need.saturating_sub(self.progress[c]);
                    let t = (gap * n).div_ceil(SCALE).max(1);
                    dt = dt.min(t);
                }

                // Dependency-threshold event for the next scheduled class.
                if self.next_scheduled < self.class_order.len() {
                    let k = self.next_scheduled;
                    let t_bytes = self.thresholds[k];
                    let cur = self.dep_delivered(k);
                    if cur < t_bytes {
                        let dep_active = self.class_order[..k]
                            .iter()
                            .filter(|c| self.active.contains(c))
                            .count() as u128;
                        if dep_active > 0 {
                            let need_bytes = u128::from(t_bytes - cur);
                            let t = (need_bytes * self.cpb * n).div_ceil(dep_active).max(1);
                            dt = dt.min(t);
                        }
                    }
                }

                // Stop-point event.
                if let Stop::AtCycle(t) = stop {
                    dt = dt.min(u128::from(t.saturating_sub(self.clock)).max(1));
                }

                debug_assert!(dt < u128::MAX, "active streams always produce an event");
                let dt64 = u64::try_from(dt.min(u128::from(u64::MAX))).expect("bounded");
                self.clock += dt64;
                let gain = u128::from(dt64) * SCALE / n;
                let snapshot: Vec<usize> = self.active.clone();
                for c in snapshot {
                    self.progress[c] += gain;
                    self.cross_boundaries(c);
                }
            }
        }

        /// The recorded arrival of a unit, if the simulation has reached it
        /// (read-only; use [`TransferEngine::unit_ready`] to simulate
        /// forward).
        #[must_use]
        pub fn recorded_arrival(&self, class: usize, unit: usize) -> Option<u64> {
            self.arrivals[class][unit]
        }

        /// Immediately requests `class` (misprediction correction): starts
        /// it if a slot is free, otherwise queues it to transfer next.
        fn demand_fetch(&mut self, class: usize) {
            if self.started[class] {
                return;
            }
            self.started[class] = true;
            // "it is queued up to be transfered next"
            self.queue.push_front(class);
            self.fill_slots();
        }
    }

    impl TransferEngine for ParallelEngine {
        fn unit_ready(&mut self, class: usize, unit: usize, now: u64) -> u64 {
            self.advance(&Stop::AtCycle(now));
            if let Some(t) = self.arrivals[class][unit] {
                return t;
            }
            if !self.started[class] {
                self.demand_fetch(class);
            }
            self.advance(&Stop::UnitArrived(class, unit));
            self.arrivals[class][unit].expect("advance ran to arrival")
        }

        fn finish_time(&mut self) -> u64 {
            self.advance(&Stop::AllDone);
            self.last_arrival
        }

        fn total_bytes(&self) -> u64 {
            self.units.iter().map(ClassUnits::total).sum()
        }
    }
}

#[cfg(test)]
mod differential {
    use super::*;

    /// SplitMix64: a tiny seeded generator for the case draws.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A unit size: zero one time in four.
        fn size(&mut self) -> u64 {
            if self.below(4) == 0 {
                0
            } else {
                1 + self.below(400)
            }
        }
    }

    /// Classes with zero-byte units, and now and then an empty class.
    fn arb_units(rng: &mut Rng) -> Vec<ClassUnits> {
        let n = rng.below(9) as usize;
        (0..n)
            .map(|_| {
                if rng.below(8) == 0 {
                    return ClassUnits {
                        prelude: 0,
                        methods: vec![0; rng.below(3) as usize],
                        trailing: 0,
                    };
                }
                ClassUnits {
                    prelude: rng.size(),
                    methods: (0..rng.below(7)).map(|_| rng.size()).collect(),
                    trailing: if rng.below(2) == 0 { 0 } else { rng.size() },
                }
            })
            .collect()
    }

    /// A shuffled start order whose thresholds are zero, reachable,
    /// capped at the dependency capacity, or unreachable.
    fn arb_schedule(rng: &mut Rng, units: &[ClassUnits]) -> ParallelSchedule {
        let mut class_order: Vec<usize> = (0..units.len()).collect();
        for i in (1..class_order.len()).rev() {
            class_order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut capacity = 0;
        let thresholds = class_order
            .iter()
            .map(|&c| {
                let t = match rng.below(5) {
                    0 => 0,
                    1 | 2 => rng.below(capacity + 1),
                    3 => capacity,
                    _ if rng.below(2) == 0 => u64::MAX,
                    _ => capacity + 1 + rng.below(100),
                };
                capacity += units[c].total();
                t
            })
            .collect();
        ParallelSchedule {
            class_order,
            thresholds,
        }
    }

    fn assert_same_record(
        new: &ParallelEngine,
        old: &reference::ParallelEngine,
        units: &[ClassUnits],
        case: usize,
    ) {
        for (c, u) in units.iter().enumerate() {
            for i in 0..u.unit_count() {
                assert_eq!(
                    new.recorded_arrival(c, i),
                    old.recorded_arrival(c, i),
                    "case {case}: class {c} unit {i}"
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_engine_cycle_for_cycle() {
        let mut rng = Rng(0x5eed_ba11);
        for case in 0..1500 {
            let units = arb_units(&mut rng);
            let schedule = arb_schedule(&mut rng, &units);
            let link = Link {
                cycles_per_byte: 1 + rng.below(2000),
                name: "diff",
            };
            let limit = [1, 2, 4, usize::MAX][case % 4];
            let mut new = ParallelEngine::new(link, units.clone(), &schedule, limit);
            let mut old = reference::ParallelEngine::new(link, units.clone(), &schedule, limit);
            assert_eq!(new.total_bytes(), old.total_bytes(), "case {case}");
            assert_same_record(&new, &old, &units, case);
            if !units.is_empty() {
                // Non-decreasing query times spread over roughly the
                // whole transfer, so early queries demand-fetch classes
                // the schedule has not released yet.
                let span = link.cycles_for(new.total_bytes()).max(1);
                let mut now = 0;
                for _ in 0..rng.below(12) {
                    now += rng.below(span / 4 + 1);
                    let c = rng.below(units.len() as u64) as usize;
                    let i = rng.below(units[c].unit_count() as u64) as usize;
                    assert_eq!(
                        new.unit_ready(c, i, now),
                        old.unit_ready(c, i, now),
                        "case {case}: unit_ready({c}, {i}, {now})"
                    );
                    assert_same_record(&new, &old, &units, case);
                }
            }
            assert_eq!(new.finish_time(), old.finish_time(), "case {case}");
            assert_same_record(&new, &old, &units, case);
        }
    }
}
