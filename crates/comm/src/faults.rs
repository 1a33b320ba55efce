//! Deterministic link-weather and parameter-server availability schedules.
//!
//! A [`CommFaultSpec`] describes how unreliable the cluster's links are: per-leg
//! probabilities of dropping, corrupting, duplicating and delaying a frame, plus the
//! retry budget and the logical timeout that bounds every operation. A
//! [`CommFaultSchedule`] turns the spec into a *pure function*: the fate of every
//! leg is a hash of `(seed, worker, round, attempt, leg)` — never of wall clocks,
//! thread scheduling or message content — and an attempt succeeds when neither of
//! its two legs (request, response) is dropped or corrupted. Duplicated and delayed
//! legs still deliver, so `duplicate`, `delay` and `delay_rounds` are validated but
//! never change an outcome.
//!
//! The fate key deliberately excludes the op: everything a worker sends in one
//! round shares the same per-attempt "link weather". That makes per-round outcomes
//! well-defined facts of the schedule — [`CommFaultSchedule::attempts_used`] is the
//! attempt count or, when the budget runs out, the eviction — and every backend
//! (simulator, threads, processes) reads them from here without coordination or
//! extra traffic. The eviction compiler in `selsync-core` relies on the same closed
//! form to precompute membership.

use serde::{Deserialize, Serialize};

/// Which leg of a request/response exchange a frame travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Worker → hub (the request).
    Request,
    /// Hub → worker (the reply).
    Response,
}

/// The deterministic fate of one frame on one leg of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The frame arrives intact.
    Deliver,
    /// The frame is lost entirely.
    Drop,
    /// The frame arrives with flipped bytes (the checksum rejects it).
    Corrupt,
    /// The frame arrives twice (still a delivery: never changes an outcome).
    Duplicate,
    /// The frame arrives late but within the logical timeout (still a delivery:
    /// never changes an outcome).
    Delay,
}

/// Seeded description of an unreliable interconnect. All rates are per *leg* (a
/// request/response exchange rolls two fates), must lie in `[0, 1]`, and must sum to
/// at most 1 — the remainder is the clean-delivery probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommFaultSpec {
    /// Seed of the fault stream (independent of the training seed so the same run
    /// can be replayed under different weather).
    pub seed: u64,
    /// Probability a leg loses its frame.
    pub drop: f64,
    /// Probability a leg delivers its frame twice.
    pub duplicate: f64,
    /// Probability a leg delivers a corrupted frame (rejected by checksum, so it
    /// counts as a failed leg, like a drop).
    pub corrupt: f64,
    /// Probability a leg delivers its frame late (still within the timeout).
    pub delay: f64,
    /// Maximum number of *rounds* a delayed frame may arrive late. Validated,
    /// described and fingerprinted, but, like `delay` itself, it never changes
    /// an attempt count or an eviction.
    pub delay_rounds: u64,
    /// Maximum attempts per logical operation (≥ 1). A worker that exhausts the
    /// budget at a round is declared dead and evicted.
    pub retry_budget: u32,
    /// Logical per-attempt timeout in seconds; attempt `a` backs off to
    /// `timeout_s · 2^a`, so the total retry penalty of an op is bounded by
    /// `timeout_s · (2^retry_budget − 1)`.
    pub timeout_s: f64,
}

impl CommFaultSpec {
    /// A lossless spec: every leg delivers, one attempt suffices. Useful as the
    /// do-nothing baseline in tests and sweeps.
    pub fn lossless(seed: u64) -> Self {
        CommFaultSpec {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 1,
            timeout_s: 5.0e-3,
        }
    }

    /// Validate rates, budget and timeout.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!(
                    "comm-fault rate `{name}` must be in [0, 1], got {rate}"
                ));
            }
        }
        let total = self.drop + self.duplicate + self.corrupt + self.delay;
        if total > 1.0 {
            return Err(format!(
                "comm-fault rates must sum to at most 1 (drop+duplicate+corrupt+delay = {total})"
            ));
        }
        if self.retry_budget == 0 {
            return Err("comm-fault retry budget must be at least 1".into());
        }
        if self.timeout_s <= 0.0 || !self.timeout_s.is_finite() {
            return Err(format!(
                "comm-fault timeout must be positive and finite, got {}",
                self.timeout_s
            ));
        }
        Ok(())
    }

    /// Whether this spec can never fail a leg (no retries, no evictions possible).
    /// Duplicates and delays still deliver, so they do not count as lossy.
    pub fn is_lossless(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0
    }

    /// One-line human summary of the weather, for scenario reports and logs.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "link weather (seed {}): drop {:.1}% / corrupt {:.1}% / duplicate {:.1}% / delay {:.1}% per leg, {} attempts, {} ms timeout",
            self.seed,
            self.drop * 100.0,
            self.corrupt * 100.0,
            self.duplicate * 100.0,
            self.delay * 100.0,
            self.retry_budget,
            self.timeout_s * 1e3,
        );
        if self.delay_rounds > 0 {
            out.push_str(&format!(
                ", delays up to {} round(s) late",
                self.delay_rounds
            ));
        }
        out
    }
}

/// Seeded description of parameter-server availability. Unlike [`CommFaultSpec`]
/// (which perturbs individual message legs), a PS fault takes the *server* down for
/// whole rounds: every op addressed to it is skipped, and workers degrade to
/// local-only training until the server returns. Outages come from two sources that
/// compose: scheduled windows (round-keyed, like `ClusterConditions` crash faults)
/// and a seeded per-round "flaky" probability (brownouts), both pure functions of
/// the round index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsFaultSpec {
    /// Seed of the flaky-outage stream (independent of the training seed so the same
    /// run can be replayed under different server weather).
    pub seed: u64,
    /// Scheduled outage windows as `(start_round, duration_rounds)` pairs. The PS is
    /// unreachable for rounds `start .. start + duration`.
    pub windows: Vec<(usize, usize)>,
    /// Per-round probability that the PS browns out for that round, independent of
    /// the scheduled windows. Must lie in `[0, 1]`.
    pub flaky: f64,
}

impl PsFaultSpec {
    /// A perfectly reliable server: no windows, no brownouts. Behaviorally identical
    /// to configuring no PS faults at all.
    pub fn reliable(seed: u64) -> Self {
        PsFaultSpec {
            seed,
            windows: Vec::new(),
            flaky: 0.0,
        }
    }

    /// Validate windows and the brownout rate.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.flaky) || !self.flaky.is_finite() {
            return Err(format!(
                "ps-fault flaky rate must be in [0, 1], got {}",
                self.flaky
            ));
        }
        for &(start, duration) in &self.windows {
            if duration == 0 {
                return Err(format!(
                    "ps-fault outage window at round {start} must last at least 1 round"
                ));
            }
            if start.checked_add(duration).is_none() {
                return Err(format!(
                    "ps-fault outage window at round {start} overflows (duration {duration})"
                ));
            }
        }
        Ok(())
    }

    /// Whether this spec can never take the server down.
    pub fn is_reliable(&self) -> bool {
        self.windows.is_empty() && self.flaky == 0.0
    }

    /// One-line human summary of the server weather, for scenario reports and logs.
    pub fn describe(&self) -> String {
        let scheduled: usize = self.windows.iter().map(|&(_, d)| d).sum();
        format!(
            "PS availability (seed {}): {} scheduled outage window(s) covering {} round(s), {:.1}% flaky per round",
            self.seed,
            self.windows.len(),
            scheduled,
            self.flaky * 100.0,
        )
    }
}

/// A compiled PS availability schedule: the spec plus the pure `round → down?`
/// function. Both training backends consult the same schedule, so degraded rounds
/// are facts of the configuration — never of timing.
#[derive(Debug, Clone, PartialEq)]
pub struct PsFaultSchedule {
    spec: PsFaultSpec,
}

impl PsFaultSchedule {
    /// Compile a spec (assumed validated).
    pub fn new(spec: PsFaultSpec) -> Self {
        PsFaultSchedule { spec }
    }

    /// The spec this schedule was compiled from.
    pub fn spec(&self) -> &PsFaultSpec {
        &self.spec
    }

    /// Whether `round` falls inside a scheduled outage window.
    pub fn in_window(&self, round: u64) -> bool {
        self.spec.windows.iter().any(|&(start, duration)| {
            round >= start as u64 && round < start as u64 + duration as u64
        })
    }

    /// Whether the PS is unreachable at `round` — a pure function of
    /// `(spec, round)`: scheduled windows OR'd with the seeded brownout draw.
    pub fn down(&self, round: u64) -> bool {
        if self.in_window(round) {
            return true;
        }
        if self.spec.flaky <= 0.0 {
            return false;
        }
        let h = splitmix64(
            splitmix64(self.spec.seed ^ 0x95D0_FFA7_5EED_0002)
                ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.spec.flaky
    }

    /// Whether `round` is the first round of an outage (the `ps_down` edge).
    pub fn outage_starts(&self, round: u64) -> bool {
        self.down(round) && (round == 0 || !self.down(round - 1))
    }

    /// Whether `round` is the first round after an outage (the `ps_up` edge — the
    /// catch-up sync round).
    pub fn outage_ends(&self, round: u64) -> bool {
        !self.down(round) && round > 0 && self.down(round - 1)
    }

    /// Number of consecutive degraded rounds immediately before `round` — the
    /// backlog a catch-up sync reconciles.
    pub fn rounds_behind(&self, round: u64) -> u64 {
        let mut behind = 0;
        let mut r = round;
        while r > 0 && self.down(r - 1) {
            behind += 1;
            r -= 1;
        }
        behind
    }
}

/// SplitMix64: the standard 64-bit finalizer — high avalanche, cheap, and stable
/// across platforms (pure integer arithmetic).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A compiled fault schedule: the spec plus the fate function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommFaultSchedule {
    spec: CommFaultSpec,
}

impl CommFaultSchedule {
    /// Compile a spec (assumed validated).
    pub fn new(spec: CommFaultSpec) -> Self {
        CommFaultSchedule { spec }
    }

    /// The spec this schedule was compiled from.
    pub fn spec(&self) -> &CommFaultSpec {
        &self.spec
    }

    /// The raw hash of one leg.
    fn leg_hash(&self, worker: usize, round: u64, attempt: u32, leg: Leg) -> u64 {
        let leg_tag = match leg {
            Leg::Request => 0u64,
            Leg::Response => 1u64,
        };
        let mut h = splitmix64(self.spec.seed ^ 0xC0A1_F00D_5EED_0001);
        h = splitmix64(h ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix64(h ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
        h = splitmix64(h ^ (attempt as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        splitmix64(h ^ leg_tag)
    }

    /// The fate of one leg: a threshold lookup on the hash, mapped to a uniform
    /// value in `[0, 1)` with 53 bits of precision.
    pub fn leg_fate(&self, worker: usize, round: u64, attempt: u32, leg: Leg) -> Fate {
        let h = self.leg_hash(worker, round, attempt, leg);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let s = &self.spec;
        if u < s.drop {
            Fate::Drop
        } else if u < s.drop + s.corrupt {
            Fate::Corrupt
        } else if u < s.drop + s.corrupt + s.duplicate {
            Fate::Duplicate
        } else if u < s.drop + s.corrupt + s.duplicate + s.delay {
            Fate::Delay
        } else {
            Fate::Deliver
        }
    }

    /// Whether attempt `attempt` of `(worker, round)` completes: both legs must
    /// deliver (duplicated and delayed frames still deliver; drops and corruptions
    /// do not).
    pub fn attempt_succeeds(&self, worker: usize, round: u64, attempt: u32) -> bool {
        [Leg::Request, Leg::Response].iter().all(|&leg| {
            !matches!(
                self.leg_fate(worker, round, attempt, leg),
                Fate::Drop | Fate::Corrupt
            )
        })
    }

    /// The first attempt index (0-based) at which `(worker, round)` completes, or
    /// `None` if the whole retry budget fails — the eviction condition.
    pub fn first_success_attempt(&self, worker: usize, round: u64) -> Option<u32> {
        (0..self.spec.retry_budget).find(|&a| self.attempt_succeeds(worker, round, a))
    }

    /// Attempts consumed by a completing op (`first success + 1`), or `None` when
    /// the budget is exhausted.
    pub fn attempts_used(&self, worker: usize, round: u64) -> Option<u32> {
        self.first_success_attempt(worker, round).map(|a| a + 1)
    }

    /// Deterministic backoff before retrying attempt `attempt` (the timeout that
    /// expired on it): `timeout_s · 2^attempt`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.spec.timeout_s * (1u64 << attempt.min(62)) as f64
    }

    /// Total timeout/backoff seconds wasted by `(worker, round)` before its first
    /// success (0.0 when the first attempt lands).
    pub fn retry_penalty_s(&self, worker: usize, round: u64) -> f64 {
        match self.first_success_attempt(worker, round) {
            Some(k) => (0..k).map(|a| self.backoff_s(a)).sum(),
            None => (0..self.spec.retry_budget).map(|a| self.backoff_s(a)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lossy(seed: u64) -> CommFaultSpec {
        CommFaultSpec {
            seed,
            drop: 0.2,
            duplicate: 0.1,
            corrupt: 0.1,
            delay: 0.1,
            delay_rounds: 0,
            retry_budget: 4,
            timeout_s: 1.0e-2,
        }
    }

    #[test]
    fn validation_accepts_sane_specs_and_rejects_bad_ones() {
        assert!(CommFaultSpec::lossless(0).validate().is_ok());
        assert!(lossy(1).validate().is_ok());
        let mut bad = lossy(1);
        bad.drop = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = lossy(1);
        bad.drop = 0.5;
        bad.duplicate = 0.6;
        assert!(bad.validate().is_err(), "rates summing past 1 are rejected");
        let mut bad = lossy(1);
        bad.retry_budget = 0;
        assert!(bad.validate().is_err());
        let mut bad = lossy(1);
        bad.timeout_s = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fates_are_pure_functions_of_the_key() {
        let s = CommFaultSchedule::new(lossy(42));
        for worker in 0..4 {
            for round in 0..16u64 {
                for attempt in 0..4 {
                    for leg in [Leg::Request, Leg::Response] {
                        assert_eq!(
                            s.leg_fate(worker, round, attempt, leg),
                            s.leg_fate(worker, round, attempt, leg)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lossless_spec_always_succeeds_on_the_first_attempt() {
        let s = CommFaultSchedule::new(CommFaultSpec::lossless(7));
        for worker in 0..8 {
            for round in 0..64u64 {
                assert_eq!(s.first_success_attempt(worker, round), Some(0));
                assert_eq!(s.attempts_used(worker, round), Some(1));
                assert_eq!(s.retry_penalty_s(worker, round), 0.0);
            }
        }
    }

    #[test]
    fn duplicate_and_delay_only_weather_never_retries() {
        let mut spec = CommFaultSpec::lossless(3);
        spec.duplicate = 0.5;
        spec.delay = 0.4;
        spec.retry_budget = 3;
        let s = CommFaultSchedule::new(spec);
        for worker in 0..4 {
            for round in 0..128u64 {
                assert_eq!(s.attempts_used(worker, round), Some(1));
            }
        }
    }

    #[test]
    fn heavy_drops_exhaust_small_budgets_somewhere() {
        let mut spec = lossy(11);
        spec.drop = 0.8;
        spec.retry_budget = 2;
        let s = CommFaultSchedule::new(spec);
        let evicted = (0..4)
            .flat_map(|w| (0..64u64).map(move |r| (w, r)))
            .any(|(w, r)| s.first_success_attempt(w, r).is_none());
        assert!(
            evicted,
            "an 80% drop rate must defeat a 2-attempt budget somewhere"
        );
    }

    #[test]
    fn backoff_doubles_and_penalty_sums_the_failed_timeouts() {
        let s = CommFaultSchedule::new(lossy(5));
        assert_eq!(s.backoff_s(0), 1.0e-2);
        assert_eq!(s.backoff_s(1), 2.0e-2);
        assert_eq!(s.backoff_s(2), 4.0e-2);
        // Find a key that needed exactly one retry and check its penalty.
        let mut checked = false;
        for w in 0..4 {
            for r in 0..256u64 {
                if s.first_success_attempt(w, r) == Some(1) {
                    assert_eq!(s.retry_penalty_s(w, r), s.backoff_s(0));
                    checked = true;
                }
            }
        }
        assert!(checked, "the lossy spec must retry somewhere in 1024 ops");
    }

    #[test]
    fn ps_fault_validation_accepts_sane_specs_and_rejects_bad_ones() {
        assert!(PsFaultSpec::reliable(0).validate().is_ok());
        let spec = PsFaultSpec {
            seed: 9,
            windows: vec![(3, 2), (10, 1)],
            flaky: 0.1,
        };
        assert!(spec.validate().is_ok());
        let mut bad = spec.clone();
        bad.flaky = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = spec.clone();
        bad.windows.push((7, 0));
        assert!(bad.validate().is_err(), "zero-length windows are rejected");
        let mut bad = spec;
        bad.windows.push((usize::MAX, 2));
        assert!(bad.validate().is_err(), "overflowing windows are rejected");
    }

    #[test]
    fn ps_windows_pin_down_rounds_exactly() {
        let s = PsFaultSchedule::new(PsFaultSpec {
            seed: 1,
            windows: vec![(3, 2), (10, 1)],
            flaky: 0.0,
        });
        let down: Vec<u64> = (0..16u64).filter(|&r| s.down(r)).collect();
        assert_eq!(down, vec![3, 4, 10]);
        assert!(s.outage_starts(3) && !s.outage_starts(4));
        assert!(s.outage_ends(5) && s.outage_ends(11));
        assert!(!s.outage_ends(4), "still inside the window");
        assert_eq!(s.rounds_behind(5), 2);
        assert_eq!(s.rounds_behind(11), 1);
        assert_eq!(s.rounds_behind(3), 0);
    }

    #[test]
    fn reliable_ps_spec_is_never_down() {
        let s = PsFaultSchedule::new(PsFaultSpec::reliable(77));
        assert!(s.spec().is_reliable());
        assert!((0..512u64).all(|r| !s.down(r)));
    }

    #[test]
    fn flaky_ps_brownouts_are_seeded_and_roughly_calibrated() {
        let spec = PsFaultSpec {
            seed: 21,
            windows: Vec::new(),
            flaky: 0.3,
        };
        let a = PsFaultSchedule::new(spec.clone());
        let b = PsFaultSchedule::new(spec);
        let downs = (0..1000u64).filter(|&r| a.down(r)).count();
        assert!(
            (200..400).contains(&downs),
            "30% flaky rate should brown out ~300/1000 rounds, saw {downs}"
        );
        for r in 0..1000u64 {
            assert_eq!(a.down(r), b.down(r), "brownouts are pure functions");
        }
        let other = PsFaultSchedule::new(PsFaultSpec {
            seed: 22,
            windows: Vec::new(),
            flaky: 0.3,
        });
        assert!(
            (0..1000u64).any(|r| a.down(r) != other.down(r)),
            "different seeds draw different brownouts"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Scheduled windows always imply downtime, edges are consistent with the
        // down function, and the backlog counter matches a naive recount.
        #[test]
        fn ps_schedule_edges_and_backlog_are_consistent(
            seed in 0u64..1000,
            start in 0usize..20,
            duration in 1usize..6,
            flaky in 0.0f64..0.5,
        ) {
            let spec = PsFaultSpec { seed, windows: vec![(start, duration)], flaky };
            prop_assert!(spec.validate().is_ok());
            let s = PsFaultSchedule::new(spec);
            for r in start as u64..(start + duration) as u64 {
                prop_assert!(s.down(r));
            }
            for r in 0..40u64 {
                prop_assert_eq!(s.down(r), s.down(r), "pure function");
                prop_assert_eq!(s.outage_starts(r), s.down(r) && (r == 0 || !s.down(r - 1)));
                prop_assert_eq!(s.outage_ends(r), !s.down(r) && r > 0 && s.down(r - 1));
                let naive = (0..r).rev().take_while(|&p| s.down(p)).count() as u64;
                prop_assert_eq!(s.rounds_behind(r), naive);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Retries are always bounded: every (worker, round) either completes within
        // the budget or is marked evictable — and the answer is stable.
        #[test]
        fn retries_are_bounded_and_deterministic(
            seed in 0u64..1000,
            drop in 0.0f64..0.9,
            corrupt in 0.0f64..0.1,
            budget in 1u32..6,
        ) {
            let spec = CommFaultSpec {
                seed,
                drop,
                duplicate: 0.0,
                corrupt,
                delay: 0.0,
                delay_rounds: 0,
                retry_budget: budget,
                timeout_s: 1.0e-3,
            };
            // Rates max out at 0.9 + 0.1 = 1.0 (exclusive ends), so every drawn
            // spec is valid.
            assert!(spec.validate().is_ok());
            let s = CommFaultSchedule::new(spec);
            for w in 0..3 {
                for r in 0..32u64 {
                    let a = s.first_success_attempt(w, r);
                    prop_assert_eq!(a, s.first_success_attempt(w, r));
                    if let Some(k) = a {
                        prop_assert!(k < budget);
                        prop_assert!(s.attempt_succeeds(w, r, k));
                        for early in 0..k {
                            prop_assert!(!s.attempt_succeeds(w, r, early));
                        }
                    }
                }
            }
        }
    }
}
