//! Streaming statistics and confidence intervals.

use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
///
/// # Example
///
/// ```
/// use fortress_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.n(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al.'s parallel
    /// Welford update: counts add, means combine weighted, and the second
    /// central moments combine with a between-groups correction).
    ///
    /// Merging is exact in infinite precision and, crucially for the
    /// parallel runner, **deterministic**: merging the same sequence of
    /// per-chunk accumulators in the same order gives bit-identical
    /// results no matter which threads produced the chunks.
    ///
    /// # Example
    ///
    /// ```
    /// use fortress_sim::stats::RunningStats;
    ///
    /// let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    /// let mut whole = RunningStats::new();
    /// let mut left = RunningStats::new();
    /// let mut right = RunningStats::new();
    /// for x in &data[..3] { whole.push(*x); left.push(*x); }
    /// for x in &data[3..] { whole.push(*x); right.push(*x); }
    /// left.merge(&right);
    /// assert_eq!(left.n(), whole.n());
    /// assert!((left.mean() - whole.mean()).abs() < 1e-12);
    /// assert!((left.variance() - whole.variance()).abs() < 1e-12);
    /// ```
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.m2 / (self.n - 1) as f64
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Standard error of the mean relative to its magnitude — the
    /// stopping criterion for adaptive trial budgets. Infinite until the
    /// accumulator has two observations and a non-zero mean.
    pub fn relative_std_error(&self) -> f64 {
        if self.n < 2 || self.mean == 0.0 {
            return f64::INFINITY;
        }
        self.std_error() / self.mean.abs()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% Student-t confidence interval of the mean.
    pub fn estimate(&self) -> Estimate {
        // With fewer than two observations the interval is unbounded.
        let half = if self.n < 2 {
            f64::INFINITY
        } else {
            t_quantile_975(self.n - 1) * self.std_error()
        };
        Estimate {
            mean: self.mean(),
            ci_low: self.mean() - half,
            ci_high: self.mean() + half,
            n: self.n,
        }
    }
}

/// One trial's availability measurements, as produced by an
/// outage-bearing protocol trial (see `fortress_sim::outage`). Trials of
/// scenarios without an availability dimension (abstract, event-driven)
/// produce no point at all, so their sweep cells report empty
/// [`AvailStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvailPoint {
    /// Fraction of the trial's mission window (its step cap) during
    /// which the system delivered no correct service: steps with no
    /// live PB primary, plus every step after the compromise (a fallen
    /// system serves nothing trustworthy).
    pub downtime_fraction: f64,
    /// PB view changes (failovers) observed during the trial.
    pub failovers: f64,
    /// Mean steps from losing the serving primary to a backup serving
    /// again — `None` when the trial completed no failover.
    pub failover_latency: Option<f64>,
    /// Deliveries dead-lettered while a server machine was down
    /// (requests lost to the outage windows).
    pub lost_requests: f64,
    /// Client-side degradation measurements, carried only by trials
    /// that ran a goodput probe under a fault plan (`None` elsewhere, so
    /// fault-free cells accumulate nothing and report unchanged).
    pub degrade: Option<DegradePoint>,
    /// Fleet-level shard measurements, carried only by trials of sharded
    /// cells (`None` elsewhere, so single-group sweeps accumulate nothing
    /// and report unchanged).
    pub shard: Option<ShardPoint>,
    /// SMR repair-economics measurements, carried only by trials whose
    /// repair axis armed the S0 view-change/state-transfer accounting
    /// (`None` elsewhere, so legacy cells accumulate nothing and report
    /// unchanged).
    pub repair: Option<RepairPoint>,
}

/// One trial's SMR repair-economics measurements, produced by the
/// repair-axis drive loop (see `fortress_sim::outage::RepairDriver`).
/// Carried only by cells whose repair axis is non-vacuous. RNG-free by
/// construction: read off the stack's `Availability` counters and
/// `TransferScheduler` at trial end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairPoint {
    /// VSR view changes completed during the trial (leader crashes that
    /// the StartViewChange / DoViewChange / StartView exchange resolved,
    /// plus any escalations past dead successors).
    pub view_changes: f64,
    /// Mean steps from losing the serving leader to a successor serving
    /// again — `None` when the trial completed no view change.
    pub view_change_latency: Option<f64>,
    /// State-transfer units paid by rejoining replicas (each unit is one
    /// log entry of divergence drained through the bandwidth budget).
    pub transfer_units: f64,
    /// Peak depth of the bounded-bandwidth transfer queue — > 1 only
    /// when a recovery storm made rejoiners contend.
    pub storm_queue_depth: f64,
}

/// One trial's fleet-level shard measurements, produced by the sharded
/// drive loop (see `fortress_sim::fleet_mc`). Carried only by cells whose
/// shard axis is non-vacuous.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardPoint {
    /// Steps until the *hottest* shard's group fell (the mission-window
    /// cap when it survived) — the observable the cross-shard placement
    /// question is about.
    pub hot_lifetime: f64,
    /// Fraction of issued workload requests routed to the hottest shard
    /// (a direct read of the Zipf skew through the shard directory).
    pub hot_load_fraction: f64,
    /// In-flight requests re-routed to a new owner by a mid-trial
    /// rebalance (0 for trials without a rebalance event).
    pub moved_requests: f64,
    /// Fortress groups whose compromise condition held by trial end.
    pub groups_fallen: f64,
}

/// One trial's client-degradation measurements, produced by the goodput
/// probe a fault-axis cell runs beside the adversary (see
/// `fortress_sim::faults`). RNG-free by construction: computed from the
/// probe's `Degradation` counters at trial end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradePoint {
    /// Fraction of issued probe requests that got an accepted answer.
    pub goodput_fraction: f64,
    /// Mean retransmissions per issued request.
    pub retries_per_request: f64,
    /// Redundant replies suppressed by request nonce.
    pub duplicates_suppressed: f64,
    /// Requests abandoned after exhausting the retry budget (plus the
    /// unanswered tail at the mission window's end).
    pub gave_up: f64,
}

/// Which per-trial sub-point feeds a metric, and so which sweeps show
/// its report columns: [`MetricGroup::Avail`] columns always appear, the
/// others only when some cell of the sweep sampled the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricGroup {
    /// Read off every protocol trial's [`AvailPoint`].
    Avail,
    /// Read off [`AvailPoint::degrade`] (fault-axis trials).
    Degrade,
    /// Read off [`AvailPoint::shard`] (sharded trials).
    Shard,
    /// Read off [`AvailPoint::repair`] (repair-axis trials).
    Repair,
}

/// Names one row of [`METRICS`] (and one accumulator of [`AvailStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricId {
    /// Per-trial downtime fraction.
    Downtime,
    /// Per-trial failover count.
    Failovers,
    /// Per-trial mean failover latency (steps), trials with ≥ 1 failover.
    FailoverLatency,
    /// Per-trial requests lost during outage windows.
    Lost,
    /// Per-trial goodput fraction.
    Goodput,
    /// Per-trial retransmissions per request.
    Retries,
    /// Per-trial duplicates suppressed.
    DupSuppressed,
    /// Per-trial gave-up requests.
    GaveUp,
    /// Per-trial hottest-shard lifetime.
    HotLifetime,
    /// Per-trial hottest-shard load fraction.
    HotLoad,
    /// Per-trial rebalance-moved requests.
    Moved,
    /// Per-trial fallen-group count.
    GroupsFallen,
    /// Per-trial completed view changes.
    ViewChanges,
    /// Per-trial mean view-change latency (steps), trials with ≥ 1
    /// completed view change.
    ViewChangeLatency,
    /// Per-trial state-transfer units paid.
    TransferUnits,
    /// Per-trial peak transfer-queue depth.
    StormQueue,
}

/// One declared sweep metric: its report names, its column group and how
/// to read it off a trial's [`AvailPoint`] (`None` when the trial did not
/// measure it).
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The row's id — equal to its index in [`METRICS`].
    pub id: MetricId,
    /// CSV column header.
    pub csv: &'static str,
    /// JSON key.
    pub json: &'static str,
    /// Column group.
    pub group: MetricGroup,
    /// The per-trial reading.
    pub read: fn(&AvailPoint) -> Option<f64>,
}

/// Every sweep metric, in report column order. Adding a metric means a
/// field on its point type, a [`MetricId`] and a row here; accumulation,
/// merging, both report renderers and the headlines derive from the
/// table.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &{
    use MetricGroup::*;
    use MetricId::*;
    const fn row(
        id: MetricId,
        csv: &'static str,
        json: &'static str,
        group: MetricGroup,
        read: fn(&AvailPoint) -> Option<f64>,
    ) -> Metric {
        Metric { id, csv, json, group, read }
    }
    [
        row(Downtime, "downtime", "downtime", Avail,
            |p| Some(p.downtime_fraction)),
        row(Failovers, "failovers", "failovers", Avail,
            |p| Some(p.failovers)),
        row(FailoverLatency, "failover_latency", "failover_latency", Avail,
            |p| p.failover_latency),
        row(Lost, "lost_requests", "lost_requests", Avail,
            |p| Some(p.lost_requests)),
        row(Goodput, "goodput", "goodput", Degrade,
            |p| p.degrade.map(|d| d.goodput_fraction)),
        row(Retries, "retries_per_req", "retries", Degrade,
            |p| p.degrade.map(|d| d.retries_per_request)),
        row(DupSuppressed, "dup_suppressed", "dup_suppressed", Degrade,
            |p| p.degrade.map(|d| d.duplicates_suppressed)),
        row(GaveUp, "gave_up", "gave_up", Degrade,
            |p| p.degrade.map(|d| d.gave_up)),
        row(HotLifetime, "hot_lifetime", "hot_lifetime", Shard,
            |p| p.shard.map(|s| s.hot_lifetime)),
        row(HotLoad, "hot_load", "hot_load", Shard,
            |p| p.shard.map(|s| s.hot_load_fraction)),
        row(Moved, "moved_requests", "moved_requests", Shard,
            |p| p.shard.map(|s| s.moved_requests)),
        row(GroupsFallen, "groups_fallen", "groups_fallen", Shard,
            |p| p.shard.map(|s| s.groups_fallen)),
        row(ViewChanges, "view_changes", "view_changes", Repair,
            |p| p.repair.map(|r| r.view_changes)),
        row(ViewChangeLatency, "view_change_latency", "view_change_latency", Repair,
            |p| p.repair.and_then(|r| r.view_change_latency)),
        row(TransferUnits, "transfer_units", "transfer_units", Repair,
            |p| p.repair.map(|r| r.transfer_units)),
        row(StormQueue, "storm_queue_depth", "storm_queue_depth", Repair,
            |p| p.repair.map(|r| r.storm_queue_depth)),
    ]
};

// Each row sits at its id's index, so `AvailStats` can index by id.
const _: () = {
    let mut i = 0;
    while i < METRICS.len() {
        assert!(
            METRICS[i].id as usize == i,
            "METRICS rows must follow MetricId order"
        );
        i += 1;
    }
};

/// Welford accumulators for the [`METRICS`] of one sweep cell, indexed
/// by [`MetricId`], merged chunk-by-chunk alongside the lifetime
/// statistics with the same fixed reduction order — so availability
/// reports are bit-identical at any thread count, exactly like the
/// lifetimes.
///
/// A metric accumulates only the trials that measured it, so the
/// latency metrics' `n()` may be smaller than the other metrics', and
/// the non-[`MetricGroup::Avail`] groups stay empty in sweeps without
/// their axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvailStats([RunningStats; METRICS.len()]);

impl Default for AvailStats {
    /// [`AvailStats::new`] — empty accumulators with proper min/max
    /// sentinels, not zeroed fields.
    fn default() -> AvailStats {
        AvailStats::new()
    }
}

impl std::ops::Index<MetricId> for AvailStats {
    type Output = RunningStats;

    fn index(&self, id: MetricId) -> &RunningStats {
        &self.0[id as usize]
    }
}

impl AvailStats {
    /// An empty accumulator.
    pub fn new() -> AvailStats {
        AvailStats([RunningStats::new(); METRICS.len()])
    }

    /// Adds one trial's measurements.
    pub fn push(&mut self, point: &AvailPoint) {
        for (acc, metric) in self.0.iter_mut().zip(METRICS) {
            if let Some(x) = (metric.read)(point) {
                acc.push(x);
            }
        }
    }

    /// Merges another accumulator into this one, metric by metric (the
    /// same parallel-Welford combination as [`RunningStats::merge`]).
    pub fn merge(&mut self, other: &AvailStats) {
        for (acc, theirs) in self.0.iter_mut().zip(&other.0) {
            acc.merge(theirs);
        }
    }

    /// Whether some trial contributed a measurement to `group`.
    pub fn sampled(&self, group: MetricGroup) -> bool {
        METRICS
            .iter()
            .zip(&self.0)
            .any(|(metric, acc)| metric.group == group && acc.n() > 0)
    }
}

/// A mean with a 95% confidence interval.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Lower bound of the 95% CI.
    pub ci_low: f64,
    /// Upper bound of the 95% CI.
    pub ci_high: f64,
    /// Sample size.
    pub n: u64,
}

impl Estimate {
    /// Whether `value` falls inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.ci_low && value <= self.ci_high
    }

    /// Half-width of the interval relative to the mean.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        (self.ci_high - self.ci_low) / 2.0 / self.mean.abs()
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom.
///
/// Exact table entries for small `df`, the normal limit elsewhere — within
/// a percent of the true quantile for every `df`, which is far below the
/// Monte-Carlo noise it brackets.
fn t_quantile_975(df: u64) -> f64 {
    const TABLE: [f64; 31] = [
        f64::INFINITY, // df = 0 sentinel
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[d as usize],
        d if d <= 60 => 2.00,
        d if d <= 120 => 1.98,
        _ => 1.96,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
        // df = 0: interval is unbounded, honestly reflecting ignorance.
        assert!(s.estimate().ci_high.is_infinite());
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut s = RunningStats::new();
        for x in &data {
            s.push(*x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn ci_covers_true_mean_for_uniform_noise() {
        // Deterministic LCG noise around mean 0.5.
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let mut s = RunningStats::new();
        for _ in 0..500 {
            s.push(next());
        }
        let est = s.estimate();
        assert!(est.contains(0.5), "{est:?}");
        assert!(est.relative_half_width() < 0.1);
    }

    #[test]
    fn t_quantiles_decrease_towards_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert!(t_quantile_975(30) > t_quantile_975(1000));
        assert!((t_quantile_975(1_000_000) - 1.96).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique() {
        for (i, a) in METRICS.iter().enumerate() {
            for b in &METRICS[i + 1..] {
                assert_ne!(a.csv, b.csv, "duplicate CSV header");
                assert_ne!(a.json, b.json, "duplicate JSON key");
            }
        }
    }

    #[test]
    fn a_point_without_sub_points_feeds_only_the_avail_group() {
        let mut stats = AvailStats::new();
        stats.push(&AvailPoint {
            downtime_fraction: 0.25,
            failovers: 2.0,
            failover_latency: Some(3.0),
            lost_requests: 4.0,
            degrade: None,
            shard: None,
            repair: None,
        });
        for m in METRICS {
            let fed = m.group == MetricGroup::Avail;
            assert_eq!(stats[m.id].n(), u64::from(fed), "{}", m.csv);
            assert_eq!(stats.sampled(m.group), fed, "{:?}", m.group);
        }
    }

    #[test]
    fn estimate_contains() {
        let e = Estimate {
            mean: 10.0,
            ci_low: 9.0,
            ci_high: 11.0,
            n: 100,
        };
        assert!(e.contains(9.5));
        assert!(!e.contains(8.0));
        assert!((e.relative_half_width() - 0.1).abs() < 1e-12);
    }
}
