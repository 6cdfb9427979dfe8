//! Streaming quantile estimation with bounded memory.
//!
//! Million-invocation runs cannot afford a `Vec<f64>` of every latency
//! just to read off p50/p99 at the end. [`QuantileSketch`] is a *merging
//! t-digest* (Dunning & Ertl): samples are buffered and periodically
//! compressed into a short list of weighted centroids whose sizes shrink
//! toward the distribution's ends, so extreme quantiles — the ones this
//! project is about — stay sharp while the middle is summarised coarsely.
//! Retained state is O(δ·log n) centroids (the quadratic weight limit
//! keeps the extreme tails at singleton resolution, which costs a
//! logarithmic factor) — about 1.4 k centroids for 10⁶ samples at the
//! default δ = 200, versus the 8 MB a raw `Vec<f64>` would hold.
//!
//! # Exact-mode fallback
//!
//! Below [`QuantileSketch::exact_threshold`] samples (default 1024) the
//! sketch simply keeps every sample and answers quantiles exactly, with
//! the same Hyndman–Fan type-7 interpolation as
//! [`crate::percentile::sorted_percentile`]. Small runs therefore lose
//! nothing; compression only engages when its error bound is tiny
//! relative to the sample count.
//!
//! # Error bound
//!
//! Compression caps the weight of a centroid covering quantile `q` at
//! `4·n·q(1−q)/δ` (the t-digest `k1` scale), so interpolation between
//! centroid midpoints can misplace a quantile estimate by at most about
//! one centroid's worth of rank. The documented guarantee, exposed as
//! [`QuantileSketch::rank_error_bound`] and asserted by this crate's
//! property tests, is a **rank error**:
//!
//! > `quantile(q)` lies between the exact `(q − ε)`- and `(q + ε)`-
//! > quantiles of the recorded samples, where
//! > `ε(q) = 8·q(1−q)/δ + 3/n`.
//!
//! (Interpolating between adjacent centroid midpoints can deviate by up
//! to 1.5 cluster weights of rank, i.e. `6·q(1−q)/δ`; the extra headroom
//! absorbs neighbour clusters sitting at slightly more central quantiles
//! and the ±1-rank effects at the extremes.) With the default δ = 200
//! that is ε(0.5) ≤ 1 % + 3/n in the middle and ε(0.99) ≤ 0.04 % + 3/n
//! at the paper's headline tail — and exactly 0 below the exact
//! threshold. (Rank error is the right contract for a quantile sketch:
//! *value* error additionally depends on the local density of the
//! distribution and is unbounded in general.)
//!
//! # Determinism and merging
//!
//! Everything here is deterministic: a compression sorts the buffered
//! samples (stable), merges them into the ascending centroid list — a
//! buffered sample goes before a centroid of equal mean — and re-clusters
//! the merged list in one fixed left-to-right pass, so the same sequence
//! of `record`/`merge` calls always yields the same centroids, bit for
//! bit. The merged list is exactly what a stable sort of "buffer, then
//! centroids" would produce; when the centroids are not in order (after
//! [`QuantileSketch::merge`] concatenates two lists, or when a weighted
//! mean rounds past its neighbour) compression falls back to that stable
//! sort. [`QuantileSketch::merge`] combines two sketches (used by the
//! sweep runner, which merges per-cell aggregates in cell-index order —
//! making merged reports independent of worker-thread count).
//!
//! # Cost
//!
//! Alongside the centroids the sketch keeps `pre[i]`, the total weight of
//! the centroids before centroid `i`. Weights are integer-valued `f64`s
//! summing to the sample count, so below 2^53 samples every prefix is
//! exact and equals the running sum the re-clustering pass and the
//! interpolation would accumulate, bit for bit. That turns a quantile
//! lookup into a binary search over the centroid midpoints
//! `pre[i] + w[i]/2`, and lets compression test each adjacent pair for a
//! merge without a loop-carried sum: runs of centroids that stay apart
//! are copied in bulk, and only merge groups are walked one by one. The
//! hedge policy's access pattern — one sample folded in per `p95` query —
//! thus costs one linear pass with no centroid sort and no allocation.

use serde::{Deserialize, Serialize};

use crate::percentile::{sort_samples, sorted_percentile};
use crate::summary::Summary;

/// Default compression factor δ: ~2·δ centroids retained at steady state.
pub const DEFAULT_COMPRESSION: f64 = 200.0;
/// Default sample count below which the sketch stays exact.
pub const DEFAULT_EXACT_THRESHOLD: usize = 1024;
/// Buffered samples between incremental compressions once sketching.
const BUFFER_CAP: usize = 512;

/// How latency quantiles are computed for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QuantileMode {
    /// Keep every sample; quantiles are exact (the default).
    #[default]
    Exact,
    /// Stream samples through a [`QuantileSketch`]; memory is O(δ) and
    /// quantiles carry the documented rank-error bound.
    Sketch,
}

impl QuantileMode {
    /// Parses the CLI spelling (`"exact"` or `"sketch"`).
    pub fn parse(s: &str) -> Option<QuantileMode> {
        match s {
            "exact" => Some(QuantileMode::Exact),
            "sketch" => Some(QuantileMode::Sketch),
            _ => None,
        }
    }

    /// The CLI spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            QuantileMode::Exact => "exact",
            QuantileMode::Sketch => "sketch",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// A mergeable t-digest quantile sketch; see the module docs for the
/// error bound and determinism guarantees.
///
/// Equality and the serialized form cover the sketch's state only; the
/// prefix index and the scratch buffer are derived from it.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    compression: f64,
    exact_threshold: usize,
    /// Uncompressed recent samples (all samples, while in exact mode).
    buffer: Vec<f64>,
    /// Weighted centroids, ascending by mean; empty while in exact mode.
    centroids: Vec<Centroid>,
    count: u64,
    min: f64,
    max: f64,
    /// `pre[i]`: total weight of `centroids[..i]`, exact (see the module
    /// docs). Rebuilt on deserialize.
    pre: Vec<f64>,
    /// Reused by `compress`: the buffer merged into the centroids, and
    /// each merged element's prefix weight.
    merged: Vec<Centroid>,
    merged_pre: Vec<f64>,
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.compression == other.compression
            && self.exact_threshold == other.exact_threshold
            && self.buffer == other.buffer
            && self.centroids == other.centroids
            && self.count == other.count
            && self.min == other.min
            && self.max == other.max
    }
}

impl Serialize for QuantileSketch {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("compression".into(), self.compression.serialize()),
            ("exact_threshold".into(), self.exact_threshold.serialize()),
            ("buffer".into(), self.buffer.serialize()),
            ("centroids".into(), self.centroids.serialize()),
            ("count".into(), self.count.serialize()),
            ("min".into(), self.min.serialize()),
            ("max".into(), self.max.serialize()),
        ])
    }
}

impl Deserialize for QuantileSketch {
    fn deserialize(v: &serde::Value) -> Result<QuantileSketch, serde::DeError> {
        let entries =
            v.as_map().ok_or_else(|| serde::DeError::expected("map for QuantileSketch", v))?;
        let compression = serde::field(entries, "compression")?;
        let exact_threshold = serde::field(entries, "exact_threshold")?;
        let buffer = serde::field(entries, "buffer")?;
        let centroids: Vec<Centroid> = serde::field(entries, "centroids")?;
        Ok(QuantileSketch {
            compression,
            exact_threshold,
            buffer,
            pre: prefix_weights(&centroids),
            centroids,
            count: serde::field(entries, "count")?,
            min: serde::field(entries, "min")?,
            max: serde::field(entries, "max")?,
            merged: Vec::new(),
            merged_pre: Vec::new(),
        })
    }
}

/// Running total weight before each centroid.
fn prefix_weights(centroids: &[Centroid]) -> Vec<f64> {
    let mut cum = 0.0;
    centroids
        .iter()
        .map(|c| {
            let before = cum;
            cum += c.weight;
            before
        })
        .collect()
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with the default compression (δ = 200) and exact
    /// threshold (1024 samples).
    pub fn new() -> Self {
        QuantileSketch::with_params(DEFAULT_COMPRESSION, DEFAULT_EXACT_THRESHOLD)
    }

    /// An empty sketch with explicit compression δ (≥ 10) and exact-mode
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `compression` is not finite or below 10 (the error bound
    /// would be meaningless).
    pub fn with_params(compression: f64, exact_threshold: usize) -> Self {
        assert!(compression.is_finite() && compression >= 10.0, "compression too small");
        QuantileSketch {
            compression,
            exact_threshold,
            buffer: Vec::new(),
            centroids: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            pre: Vec::new(),
            merged: Vec::new(),
            merged_pre: Vec::new(),
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (NaN-free by construction).
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty sketch");
        self.min
    }

    /// Largest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty sketch");
        self.max
    }

    /// Sample count below which quantiles are exact.
    pub fn exact_threshold(&self) -> usize {
        self.exact_threshold
    }

    /// Whether compression has engaged (false ⇒ quantiles are exact).
    pub fn is_sketching(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN latency sample");
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buffer.push(v);
        if self.is_sketching() {
            if self.buffer.len() >= BUFFER_CAP {
                self.compress();
            }
        } else if self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    /// Absorbs all samples recorded by `other`.
    ///
    /// Deterministic: merging the same pair of sketch states always
    /// produces the same result, so reductions that fix their merge order
    /// (like the sweep runner's cell-index merge) are reproducible across
    /// thread counts.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.buffer.extend_from_slice(&other.buffer);
        let base = self.centroid_weight();
        self.pre.extend(other.pre.iter().map(|p| base + p));
        self.centroids.extend_from_slice(&other.centroids);
        if self.is_sketching() || self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    /// Returns the `q`-quantile estimate. Exact below the threshold;
    /// otherwise within the [`rank_error_bound`](Self::rank_error_bound).
    ///
    /// Takes `&mut self` because pending buffered samples are folded into
    /// the centroids first.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if !self.is_sketching() {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return sorted_percentile(&sorted, q);
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        let n = self.count as f64;
        let target = q * n;
        // Interpolate piecewise-linearly between centroid rank midpoints,
        // anchored at min (rank 0) and max (rank n). The midpoints are
        // strictly increasing, so the first one above `target` is a binary
        // search away.
        let (mut lo, mut hi) = (0, self.centroids.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if target < self.midpoint(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let (prev_mid, prev_mean) = self.left_anchor(lo);
        if let Some(c) = self.centroids.get(lo) {
            let mid = self.midpoint(lo);
            let t = if mid > prev_mid { (target - prev_mid) / (mid - prev_mid) } else { 0.0 };
            return lerp(prev_mean, c.mean, t).clamp(self.min, self.max);
        }
        let t = if n > prev_mid { (target - prev_mid) / (n - prev_mid) } else { 1.0 };
        lerp(prev_mean, self.max, t).clamp(self.min, self.max)
    }

    /// Rank midpoint of centroid `i`.
    fn midpoint(&self, i: usize) -> f64 {
        self.pre[i] + self.centroids[i].weight / 2.0
    }

    /// `(rank midpoint, mean)` of the centroid before centroid `i`, or the
    /// `(0, min)` anchor before the first.
    fn left_anchor(&self, i: usize) -> (f64, f64) {
        match i.checked_sub(1) {
            Some(prev) => (self.midpoint(prev), self.centroids[prev].mean),
            None => (0.0, self.min),
        }
    }

    /// Total weight of the centroids.
    fn centroid_weight(&self) -> f64 {
        match (self.pre.last(), self.centroids.last()) {
            (Some(p), Some(c)) => p + c.weight,
            _ => 0.0,
        }
    }

    /// The documented rank-error guarantee at quantile `q`:
    /// [`quantile`](Self::quantile)`(q)` lies between the exact `(q − ε)`-
    /// and `(q + ε)`-quantiles of the recorded samples. Zero while in
    /// exact mode.
    pub fn rank_error_bound(&self, q: f64) -> f64 {
        if !self.is_sketching() {
            return 0.0;
        }
        8.0 * q * (1.0 - q) / self.compression + 3.0 / self.count as f64
    }

    /// Number of retained centroids (0 while in exact mode). Bounded by
    /// O(δ·log n) — this, plus the fixed-size buffer, is the sketch's
    /// entire memory footprint.
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Fraction of recorded samples `<= x` — the empirical CDF.
    ///
    /// Exact below the threshold (bit-identical to [`crate::cdf::Cdf::eval`]
    /// over the same samples, it is the same integer count divided by the
    /// same `n`); once sketching, within the
    /// [`rank_error_bound`](Self::rank_error_bound) at the rank of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `x` is NaN (consistent with
    /// `Cdf::eval`: with a NaN every comparison is vacuously false and the
    /// result would silently be 0).
    pub fn cdf(&self, x: f64) -> f64 {
        assert!(self.count > 0, "CDF of empty sketch");
        assert!(!x.is_nan(), "CDF evaluated at NaN");
        self.rank(x, true) / self.count as f64
    }

    /// Estimated number of recorded samples strictly below `x` (0 when
    /// empty). Exact below the threshold; within `n·ε` once sketching.
    ///
    /// Bin counts derived as differences of cumulative ranks at the bin
    /// edges conserve total mass by construction, which per-bin
    /// estimates would not.
    ///
    /// # Examples
    ///
    /// Counting samples per decade bin of `[1, 1000)`:
    ///
    /// ```
    /// use stats::QuantileSketch;
    /// let mut s = QuantileSketch::new();
    /// for v in [0.5, 5.0, 50.0, 500.0, 5000.0] {
    ///     s.record(v);
    /// }
    /// let edges = [1.0, 10.0, 100.0, 1000.0];
    /// let counts: Vec<f64> = edges.windows(2).map(|e| s.rank_below(e[1]) - s.rank_below(e[0])).collect();
    /// assert_eq!(counts, [1.0, 1.0, 1.0]);
    /// assert_eq!(s.rank_below(1.0), 1.0); // underflow
    /// assert_eq!(s.count() as f64 - s.rank_below(1000.0), 1.0); // overflow
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn rank_below(&self, x: f64) -> f64 {
        assert!(!x.is_nan(), "rank of NaN");
        if self.count == 0 {
            return 0.0;
        }
        self.rank(x, false)
    }

    /// Rank of `x`: exact count over the buffered samples plus the
    /// interpolated rank over the compressed ones.
    fn rank(&self, x: f64, inclusive: bool) -> f64 {
        let buffered =
            self.buffer.iter().filter(|&&v| if inclusive { v <= x } else { v < x }).count() as f64;
        buffered + self.centroid_rank(x, inclusive)
    }

    /// Interpolated rank of `x` within the compressed samples only (0
    /// while in exact mode): piecewise linear between centroid rank
    /// midpoints, anchored at `(0, min)` and `(n_compressed, max)` — the
    /// inverse of the interpolation in [`QuantileSketch::quantile`].
    ///
    /// The boundary cases honor `inclusive`: a strict rank at an atom
    /// sitting exactly on min/max (e.g. an all-equal distribution) must
    /// exclude that atom's mass, where the inclusive CDF includes it.
    ///
    /// The segment is found by binary search for the first centroid whose
    /// mean exceeds `x`, then read off the prefix index like `quantile`.
    fn centroid_rank(&self, x: f64, inclusive: bool) -> f64 {
        if self.centroids.is_empty() {
            return 0.0;
        }
        let nc = (self.count - self.buffer.len() as u64) as f64;
        if x < self.min || (!inclusive && x <= self.min) {
            return 0.0;
        }
        if x >= self.max {
            return nc;
        }
        let i = self.centroids.partition_point(|c| c.mean <= x);
        let (prev_mid, prev_mean) = self.left_anchor(i);
        if let Some(c) = self.centroids.get(i) {
            let mid = self.midpoint(i);
            let t = if c.mean > prev_mean { (x - prev_mean) / (c.mean - prev_mean) } else { 0.0 };
            return (prev_mid + t * (mid - prev_mid)).clamp(0.0, nc);
        }
        let t = if self.max > prev_mean { (x - prev_mean) / (self.max - prev_mean) } else { 1.0 };
        (prev_mid + t * (nc - prev_mid)).clamp(0.0, nc)
    }

    /// Down-samples the distribution to `n` evenly spaced
    /// `(value, cumulative_prob)` plot points — the sketch-backed
    /// equivalent of [`crate::cdf::Cdf::points`], bit-identical to it
    /// below the exact threshold.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `n < 2`.
    pub fn quantile_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        assert!(self.count > 0, "plot points of empty sketch");
        assert!(n >= 2, "need at least two plot points");
        if !self.is_sketching() {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return (0..n)
                .map(|i| {
                    let q = i as f64 / (n - 1) as f64;
                    (sorted_percentile(&sorted, q), q)
                })
                .collect();
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// Folds buffered samples into the centroid list and re-clusters.
    fn compress(&mut self) {
        sort_samples(&mut self.buffer);
        // A branch-free reduction: the lists are nearly always ordered, and
        // an early-exit `all` costs more per element.
        if self.centroids.windows(2).fold(true, |ok, p| ok & (p[0].mean <= p[1].mean)) {
            self.merge_buffer();
        } else {
            self.sort_buffer_in();
        }
        self.buffer.clear();
        self.recluster();
    }

    /// Two-way merge of the sorted buffer into the ordered centroids, into
    /// `merged`/`merged_pre`. On equal means the buffered sample goes first,
    /// as in a stable sort of the buffer followed by the centroids. A
    /// merged element's prefix weight is its source prefix plus the weight
    /// merged in from the other list so far — exact, with no running sum.
    fn merge_buffer(&mut self) {
        let total = self.centroid_weight();
        let (cs, pre) = (&self.centroids, &self.pre);
        self.merged.clear();
        self.merged_pre.clear();
        let mut j = 0;
        for (i, &v) in self.buffer.iter().enumerate() {
            let before = i as f64;
            let run = j + cs[j..].iter().take_while(|c| c.mean < v).count();
            self.merged.extend_from_slice(&cs[j..run]);
            self.merged_pre.extend(pre[j..run].iter().map(|p| p + before));
            j = run;
            self.merged.push(Centroid { mean: v, weight: 1.0 });
            self.merged_pre.push(pre.get(j).map_or(total, |&p| p) + before);
        }
        let before = self.buffer.len() as f64;
        self.merged.extend_from_slice(&cs[j..]);
        self.merged_pre.extend(pre[j..].iter().map(|p| p + before));
    }

    /// The general path for centroids out of order: a stable sort of the
    /// buffered samples followed by the centroids, then a running sum.
    fn sort_buffer_in(&mut self) {
        self.merged.clear();
        self.merged.extend(self.buffer.iter().map(|&v| Centroid { mean: v, weight: 1.0 }));
        self.merged.extend_from_slice(&self.centroids);
        self.merged.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("NaN centroid"));
        self.merged_pre = prefix_weights(&self.merged);
    }

    /// Re-clusters `merged` into `centroids`/`pre` in one left-to-right
    /// pass: the current centroid absorbs its right neighbour while the
    /// pair's combined weight stays within the [`MergeTest`] limit at the
    /// pair's midpoint rank.
    ///
    /// A fresh centroid's pair test depends only on the two weights and
    /// the left one's prefix, so runs of elements that stay apart are found
    /// without a loop-carried sum and copied in bulk; only merge groups are
    /// walked element by element.
    fn recluster(&mut self) {
        let test = MergeTest::new(self.count as f64, self.compression);
        let (m, mp) = (&self.merged, &self.merged_pre);
        debug_assert_eq!(m.len(), mp.len());
        self.centroids.clear();
        self.pre.clear();
        let len = m.len();
        let mut i = 0;
        while i < len {
            let run = i;
            while i + 1 < len && test.surely_rejects(mp[i], m[i].weight + m[i + 1].weight) {
                i += 1;
            }
            self.centroids.extend_from_slice(&m[run..i]);
            self.pre.extend_from_slice(&mp[run..i]);
            // `m[i]` may absorb its neighbours: walk its group.
            let cum = mp[i];
            let mut cur = m[i];
            i += 1;
            while let Some(c) = m.get(i) {
                let w = cur.weight + c.weight;
                // −∞ and +∞ never merge: their weighted mean is NaN.
                let opposite_infinities = cur.mean == f64::NEG_INFINITY && c.mean == f64::INFINITY;
                if opposite_infinities || !test.admits(cum, w) {
                    break;
                }
                // Weighted mean; `cur.mean <= c.mean` so the result stays
                // within the pair's span.
                cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
                cur.weight = w;
                i += 1;
            }
            self.centroids.push(cur);
            self.pre.push(cum);
        }
    }
}

/// `a + t·(b − a)`, except where that formula can only give NaN: from an
/// infinite `a` (∞ − ∞), or at `t = 0` towards an infinite `b` (0 · ∞).
/// Those cases return `a`, as the exact path's interpolation does.
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    if a.is_infinite() || (t == 0.0 && b.is_infinite()) {
        a
    } else {
        a + t * (b - a)
    }
}

/// Largest sample count and compression for which [`MergeTest`] decides
/// from its division-free estimate; beyond either it always evaluates the
/// limit formula.
const ESTIMATE_RANGE: f64 = (1u64 << 40) as f64;

/// The re-clustering merge test: a group of prefix weight `cum` may grow
/// to weight `w` iff `w <= max(4·n·q(1−q)/δ, 1)` with `q = (cum + w/2)/n`,
/// evaluated in exactly that floating-point form (the `max` never matters:
/// a pair weighs at least 2).
///
/// Most pairs are far from the limit, so the test first compares `w` with
/// the division-free estimate `x·(n−x)·4/(n·δ)`, `x = cum + w/2`, and
/// evaluates the formula only when `w` lies within a relative margin `M`
/// of the estimate. The margin makes every decision equal the formula's:
///
/// - With `n ≤ 2^40`, `n`, `x` and `n − x` are exact (integers and
///   half-integers), and `1 ≤ x`, `1 ≤ n − x` (a pair weighs at least 2
///   and lies within the `n` merged weight).
/// - Let `L = 4·x·(n−x)/(n·δ)` and `u = 2^-53`. The formula rounds
///   `q = x/n` (factor `1+ε1`), then rounds four more operations; the
///   subtraction `1 − q̂` turns `q`'s error into a relative error of
///   `1 − q` of `ε1·q/(1−q) = ε1·x/(n−x) < u·n`. So the formula's value
///   is `L·(1 ± ((1+u)^5·(1+u·n) − 1))`, within `L·(6 + n)·u` to first
///   order — the margin must grow with `n`.
/// - The estimate and its margined thresholds round six operations,
///   within `L·(1 ± M)·(1 ± 7u)` of `L·(1 ± M)`.
/// - `M = 8u·(n + 64)` exceeds the sum of both by a factor of over 4
///   (second-order terms are below `u·M`, negligible for `M ≤ 2^-10`).
///   Hence `w < estimate·(1 − M)` implies `w` is below the formula's
///   value (merge), and `w > estimate·(1 + M)` implies it is above
///   (reject).
///
/// All other pairs — a vanishing share, unless `L` is within `M` of an
/// integer — evaluate the formula itself.
#[derive(Debug, Clone, Copy)]
struct MergeTest {
    n: f64,
    delta: f64,
    /// `4/(n·δ)·(1 − M)` and `4/(n·δ)·(1 + M)`; `0` and `∞` (always
    /// evaluate) outside [`ESTIMATE_RANGE`].
    below: f64,
    above: f64,
}

impl MergeTest {
    fn new(n: f64, delta: f64) -> MergeTest {
        let (below, above) = if n <= ESTIMATE_RANGE && delta <= ESTIMATE_RANGE {
            let k = 4.0 / (n * delta);
            let margin = 8.0 * (f64::EPSILON / 2.0) * (n + 64.0);
            (k * (1.0 - margin), k * (1.0 + margin))
        } else {
            (0.0, f64::INFINITY)
        };
        MergeTest { n, delta, below, above }
    }

    /// Whether the estimate alone shows the formula rejects `w`.
    #[inline]
    fn surely_rejects(&self, cum: f64, w: f64) -> bool {
        let x = cum + w / 2.0;
        w > x * (self.n - x) * self.above
    }

    /// The formula's decision, read off the estimate where the margin
    /// allows.
    #[inline]
    fn admits(&self, cum: f64, w: f64) -> bool {
        let x = cum + w / 2.0;
        let estimate = x * (self.n - x);
        if w < estimate * self.below {
            return true;
        }
        if w > estimate * self.above {
            return false;
        }
        let (n, delta) = (self.n, self.delta);
        let q_mid = x / n;
        let limit = (4.0 * n * q_mid * (1.0 - q_mid) / delta).max(1.0);
        w <= limit
    }
}

/// Streaming latency aggregate: a quantile sketch plus the moment sums
/// needed to reproduce a [`Summary`] without retaining samples.
///
/// This is what flows through the client, experiment, and sweep layers on
/// large runs: O(δ) memory however many invocations are recorded, and
/// mergeable across sweep cells. In exact mode (small runs, or
/// `keep_samples`) the figure pipelines keep using raw sample vectors and
/// this aggregate is simply a cheap companion.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyAgg {
    sketch: QuantileSketch,
    sum: f64,
    sumsq: f64,
}

impl LatencyAgg {
    /// An empty aggregate with default sketch parameters.
    pub fn new() -> Self {
        LatencyAgg::default()
    }

    /// An empty aggregate with an explicit quantile mode: `Exact` uses a
    /// threshold no run exceeds (quantiles stay exact at any size, memory
    /// O(n)); `Sketch` uses the default compression.
    pub fn with_mode(mode: QuantileMode) -> Self {
        match mode {
            QuantileMode::Exact => LatencyAgg {
                sketch: QuantileSketch::with_params(DEFAULT_COMPRESSION, usize::MAX),
                ..Default::default()
            },
            QuantileMode::Sketch => LatencyAgg::new(),
        }
    }

    /// Builds an exact-mode aggregate from a sample slice in one call —
    /// the bridge for figure pipelines that start from raw samples:
    /// quantiles, CDF points, and summaries all come out bit-identical to
    /// the historical sample-vector paths.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> LatencyAgg {
        let mut agg = LatencyAgg::with_mode(QuantileMode::Exact);
        for &v in samples {
            agg.record(v);
        }
        agg
    }

    /// Records one latency sample (milliseconds, by project convention).
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn record(&mut self, v: f64) {
        self.sketch.record(v);
        self.sum += v;
        self.sumsq += v * v;
    }

    /// Absorbs `other` (deterministic; see [`QuantileSketch::merge`]).
    pub fn merge(&mut self, other: &LatencyAgg) {
        self.sketch.merge(&other.sketch);
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Mean of the recorded samples.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty aggregate");
        self.sum / self.count() as f64
    }

    /// Quantile estimate (see [`QuantileSketch::quantile`]).
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sketch.quantile(q)
    }

    /// Fraction of samples `<= x` (see [`QuantileSketch::cdf`]).
    pub fn cdf(&self, x: f64) -> f64 {
        self.sketch.cdf(x)
    }

    /// CDF plot points (see [`QuantileSketch::quantile_points`]).
    pub fn quantile_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        self.sketch.quantile_points(n)
    }

    /// Smallest recorded sample (see [`QuantileSketch::min`]).
    pub fn min(&self) -> f64 {
        self.sketch.min()
    }

    /// Largest recorded sample (see [`QuantileSketch::max`]).
    pub fn max(&self) -> f64 {
        self.sketch.max()
    }

    /// The sketch's rank-error bound at `q`.
    pub fn rank_error_bound(&self, q: f64) -> f64 {
        self.sketch.rank_error_bound(q)
    }

    /// Shared access to the underlying sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Builds a [`Summary`] from the aggregate. Quantiles come from the
    /// sketch (exact below the threshold); mean and standard deviation
    /// come from the moment sums, so on very large runs `std` carries the
    /// usual one-pass cancellation caveat (irrelevant at latency scales).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn summary(&mut self) -> Summary {
        assert!(!self.is_empty(), "summary of empty aggregate");
        if !self.sketch.is_sketching() {
            // Below the threshold the buffer holds every sample, so
            // delegating reproduces the historical exact-mode summary bit
            // for bit (mean/std from the sorted two-pass path rather than
            // the insertion-order moment sums).
            return Summary::from_samples(&self.sketch.buffer);
        }
        let n = self.count();
        let mean = self.mean();
        let var = if n > 1 {
            ((self.sumsq - n as f64 * mean * mean) / (n as f64 - 1.0)).max(0.0)
        } else {
            0.0
        };
        let median = self.quantile(0.5);
        let tail = self.quantile(0.99);
        Summary {
            count: n as usize,
            mean,
            std: var.sqrt(),
            min: self.sketch.min(),
            max: self.sketch.max(),
            p25: self.quantile(0.25),
            median,
            p75: self.quantile(0.75),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            tail,
            p999: self.quantile(0.999),
            tmr: if median > 0.0 { tail / median } else { f64::INFINITY },
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;

    /// FNV-1a over the bit patterns of `values`.
    fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    fn centroid_digest(s: &QuantileSketch) -> u64 {
        bits_digest(s.centroids.iter().flat_map(|c| [c.mean, c.weight]))
    }

    /// A latency-like stream quantised to 0.25 ms, so most values repeat
    /// many times, with a sparse slow tail.
    fn tied_stream(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut x = seed;
        (0..n).map(move |_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let body = (z % 400) as f64 * 0.25;
            if z.is_multiple_of(50) {
                body + 100.0 + ((z >> 20) % 64) as f64
            } else {
                body
            }
        })
    }

    // Pinned outputs: the p95 after every record (the hedge driver's
    // access pattern), and the centroids of a long and of a merged sketch.
    // Any change to compression or interpolation arithmetic moves them.

    #[test]
    fn pinned_p95_after_every_record_on_a_tied_stream() {
        let mut s = QuantileSketch::new();
        let mut p95s = Vec::with_capacity(100_000);
        for v in tied_stream(1, 100_000) {
            s.record(v);
            p95s.push(s.quantile(0.95));
        }
        assert!(s.is_sketching());
        assert_eq!(bits_digest(p95s), 0x7e4c_98ab_ade5_7800, "p95 trace");
        assert_eq!(centroid_digest(&s), 0x2d51_7da5_c3aa_7bf9, "final centroids");
    }

    #[test]
    fn pinned_centroids_after_merging_tied_streams() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        tied_stream(2, 40_000).for_each(|v| a.record(v));
        tied_stream(3, 25_000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(centroid_digest(&a), 0x7858_62fb_b338_42c9, "merged centroids");
    }

    #[test]
    fn exact_below_threshold_matches_percentile() {
        let mut s = QuantileSketch::new();
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        for &x in &xs {
            s.record(x);
        }
        assert!(!s.is_sketching());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), percentile(&xs, q), "q={q}");
            assert_eq!(s.rank_error_bound(q), 0.0);
        }
    }

    #[test]
    fn sketch_mode_engages_past_threshold() {
        let mut s = QuantileSketch::new();
        for i in 0..5000 {
            s.record(i as f64);
        }
        assert!(s.is_sketching());
        assert_eq!(s.count(), 5000);
        assert!(s.centroid_count() < 1000, "centroids: {}", s.centroid_count());
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 4999.0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 4999.0);
    }

    #[test]
    fn sketch_respects_rank_error_on_uniform_ladder() {
        let mut s = QuantileSketch::new();
        let n = 50_000;
        for i in 0..n {
            s.record(i as f64);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = s.quantile(q);
            let eps = s.rank_error_bound(q);
            // On the ladder the value at rank r is r itself, so rank error
            // is directly readable.
            let lo = ((q - eps) * (n - 1) as f64).floor();
            let hi = ((q + eps) * (n - 1) as f64).ceil();
            assert!(est >= lo && est <= hi, "q={q}: est={est} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = QuantileSketch::new();
        for i in 0..200_000 {
            s.record((i % 9973) as f64);
        }
        // O(δ·log n): empirically ~1.2 k centroids at n = 2e5, δ = 200.
        assert!(s.centroid_count() < 2000, "centroids: {}", s.centroid_count());
        assert!(s.buffer.len() < BUFFER_CAP);
    }

    #[test]
    fn merge_equals_sequential_recording_statistics() {
        let xs: Vec<f64> = (0..30_000u64).map(|i| ((i * 2654435761) % 100_000) as f64).collect();
        let mut whole = QuantileSketch::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 13_000 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merged and sequential sketches need not be identical, but both
        // must satisfy the error bound against the exact quantiles.
        for q in [0.5, 0.99] {
            let eps = a.rank_error_bound(q) + 1.0 / xs.len() as f64;
            let exact_lo = percentile(&xs, (q - eps).max(0.0));
            let exact_hi = percentile(&xs, (q + eps).min(1.0));
            let est = a.quantile(q);
            assert!(est >= exact_lo && est <= exact_hi, "q={q}: {est} vs [{exact_lo}, {exact_hi}]");
        }
    }

    #[test]
    fn merge_is_deterministic() {
        let build = || {
            let mut parts: Vec<QuantileSketch> = Vec::new();
            for p in 0..4u64 {
                let mut s = QuantileSketch::new();
                for i in 0..5_000u64 {
                    s.record(((i * 31 + p * 7) % 4096) as f64);
                }
                parts.push(s);
            }
            let mut acc = QuantileSketch::new();
            for p in &parts {
                acc.merge(p);
            }
            acc
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn exact_sketches_merge_into_exact_when_small() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..100 {
            a.record(i as f64);
            b.record((100 + i) as f64);
        }
        a.merge(&b);
        assert!(!a.is_sketching(), "200 samples should stay exact");
        assert_eq!(a.quantile(0.5), 99.5);
    }

    #[test]
    fn agg_summary_matches_exact_on_small_runs() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let mut agg = LatencyAgg::new();
        for &x in &xs {
            agg.record(x);
        }
        let s = agg.summary();
        let exact = Summary::from_samples(&xs);
        assert_eq!(s.count, exact.count);
        assert_eq!(s.median, exact.median);
        assert_eq!(s.tail, exact.tail);
        assert_eq!(s.min, exact.min);
        assert_eq!(s.max, exact.max);
        assert!((s.mean - exact.mean).abs() < 1e-9);
        assert!((s.std - exact.std).abs() < 1e-9);
    }

    #[test]
    fn exact_mode_agg_never_sketches() {
        let mut agg = LatencyAgg::with_mode(QuantileMode::Exact);
        for i in 0..10_000 {
            agg.record(i as f64);
        }
        assert!(!agg.sketch().is_sketching());
        assert_eq!(
            agg.quantile(0.5),
            percentile(&(0..10_000).map(|i| i as f64).collect::<Vec<_>>(), 0.5)
        );
    }

    #[test]
    fn serde_round_trip() {
        let mut s = QuantileSketch::new();
        for i in 0..3000 {
            s.record((i % 71) as f64);
        }
        let json = serde_json::to_string(&s).unwrap();
        let mut back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.quantile(0.5), s.quantile(0.5));
    }

    #[test]
    fn serialized_form_and_equality_cover_the_state_only() {
        let mut s = QuantileSketch::with_params(10.0, 2);
        for v in [3.0, 1.0, 2.0, 2.0, 5.0] {
            s.record(v);
        }
        s.quantile(0.5);
        s.record(4.0);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            "{\"compression\":10.0,\"exact_threshold\":2,\"buffer\":[4.0],\"centroids\":\
             [{\"mean\":1.0,\"weight\":1.0},{\"mean\":2.0,\"weight\":1.0},\
             {\"mean\":2.0,\"weight\":1.0},{\"mean\":3.0,\"weight\":1.0},\
             {\"mean\":5.0,\"weight\":1.0}],\"count\":6,\"min\":1.0,\"max\":5.0}"
        );
        let back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.pre, s.pre, "the prefix index is rebuilt on deserialize");
    }

    // Infinite samples: −∞ and +∞ never merge (their weighted mean is
    // NaN), and interpolation between equal infinities stays infinite.

    #[test]
    fn alternating_infinities_never_merge_into_a_nan_centroid() {
        let mut s = QuantileSketch::new();
        for i in 0..1100 {
            s.record(if i % 2 == 0 { f64::NEG_INFINITY } else { f64::INFINITY });
        }
        assert!(s.is_sketching());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(!s.quantile(q).is_nan(), "q={q}");
        }
        assert_eq!(s.quantile(0.25), f64::NEG_INFINITY);
        assert_eq!(s.quantile(0.75), f64::INFINITY);
        assert!(s.centroids.iter().all(|c| !c.mean.is_nan()));
    }

    #[test]
    fn an_infinite_third_keeps_the_tail_infinite_when_sketching() {
        let xs: Vec<f64> =
            (0..3000).map(|i| if i % 3 == 0 { f64::INFINITY } else { i as f64 }).collect();
        let mut s = QuantileSketch::new();
        for &x in &xs {
            s.record(x);
        }
        assert!(s.is_sketching());
        assert_eq!(percentile(&xs, 0.99), f64::INFINITY);
        assert_eq!(s.quantile(0.99), f64::INFINITY);
    }

    #[test]
    fn interpolation_returns_the_endpoint_where_the_formula_is_nan() {
        let inf = f64::INFINITY;
        assert_eq!(lerp(inf, inf, 0.5), inf);
        assert_eq!(lerp(-inf, -inf, 0.5), -inf);
        assert_eq!(lerp(-inf, 3.0, 0.5), -inf);
        assert_eq!(lerp(2.0, inf, 0.0), 2.0);
        assert_eq!(lerp(2.0, inf, 0.5), inf);
        // Finite endpoints keep the formula, signed zeros included.
        assert_eq!(lerp(-0.0, 1.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(lerp(1.0, 3.0, 0.25), 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_record_panics() {
        QuantileSketch::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_quantile_panics() {
        QuantileSketch::new().quantile(0.5);
    }

    // Edge-case contract: empty panics, a single sample and all-equal
    // samples answer exactly, q = 0/1 pin min/max — never NaN. Every
    // figure goes through these cases.

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_cdf_panics() {
        QuantileSketch::new().cdf(1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        LatencyAgg::new().summary();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_of_nan_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.cdf(f64::NAN);
    }

    #[test]
    fn single_sample_is_exact_everywhere() {
        let mut agg = LatencyAgg::new();
        agg.record(42.0);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(agg.quantile(q), 42.0, "q={q}");
        }
        let s = agg.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p999, 42.0);
        assert_eq!(agg.cdf(41.9), 0.0);
        assert_eq!(agg.cdf(42.0), 1.0);
    }

    #[test]
    fn all_equal_samples_answer_exactly_even_when_sketching() {
        let mut s = QuantileSketch::new();
        for _ in 0..10_000 {
            s.record(7.5);
        }
        assert!(s.is_sketching());
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert_eq!(v, 7.5, "q={q}");
            assert!(!v.is_nan());
        }
        assert_eq!(s.cdf(7.5), 1.0);
        assert_eq!(s.cdf(7.4), 0.0);
        assert_eq!(s.rank_below(7.5), 0.0);
        assert_eq!(s.rank_below(7.6), 10_000.0);
    }

    #[test]
    fn extreme_quantiles_pin_min_max_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..50_000u64 {
            s.record(((i * 2654435761) % 100_000) as f64 / 7.0);
        }
        assert!(s.is_sketching());
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
    }

    #[test]
    fn cdf_matches_exact_cdf_below_threshold() {
        let xs = [1.0, 1.0, 1.0, 2.0, 5.0, 9.0];
        let mut s = QuantileSketch::new();
        for &x in &xs {
            s.record(x);
        }
        let cdf = crate::cdf::Cdf::from_samples(&xs);
        for x in [0.5, 1.0, 1.5, 2.0, 7.0, 9.0, 100.0] {
            assert_eq!(s.cdf(x).to_bits(), cdf.eval(x).to_bits(), "x={x}");
        }
        assert_eq!(s.rank_below(1.0), 0.0);
        assert_eq!(s.rank_below(1.5), 3.0);
    }

    #[test]
    fn cdf_respects_rank_error_when_sketching() {
        let n = 50_000;
        let mut s = QuantileSketch::new();
        for i in 0..n {
            s.record(i as f64);
        }
        for x in [100.0, 5_000.0, 25_000.0, 49_000.0, 49_950.0] {
            let est = s.cdf(x);
            let exact = (x + 1.0) / n as f64; // ladder: #samples <= x
            let eps = s.rank_error_bound(exact) + 3.0 / n as f64;
            assert!((est - exact).abs() <= eps, "x={x}: est {est} vs exact {exact} (eps {eps})");
        }
    }

    #[test]
    fn quantile_points_match_cdf_points_below_threshold() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let mut s = QuantileSketch::new();
        for &x in &xs {
            s.record(x);
        }
        let pts = s.quantile_points(120);
        let cdf_pts = crate::cdf::Cdf::from_samples(&xs).points(120);
        assert_eq!(pts, cdf_pts);
    }

    #[test]
    fn quantile_points_are_monotone_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..20_000u64 {
            s.record(((i * 31) % 9973) as f64);
        }
        let pts = s.quantile_points(50);
        assert_eq!(pts.len(), 50);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "values must be non-decreasing: {pts:?}");
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[49].1, 1.0);
    }

    #[test]
    fn summary_delegates_to_exact_path_below_threshold() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * 37) % 100) as f64 + 0.25).collect();
        let mut agg = LatencyAgg::new();
        for &x in &xs {
            agg.record(x);
        }
        let from_agg = agg.summary();
        let exact = Summary::from_samples(&xs);
        assert_eq!(from_agg.mean.to_bits(), exact.mean.to_bits());
        assert_eq!(from_agg.std.to_bits(), exact.std.to_bits());
        assert_eq!(from_agg, exact);
    }

    // Bin-count views: counts per bin are differences of `rank_below` at
    // log-spaced edges, with the strict rank putting a value that sits on
    // an edge into the bin above it.

    /// `(lo, hi)` of bin `i` of `bins` log-spaced bins over `[lo, hi)`,
    /// with the outer edges pinned to the exact bounds.
    fn log_edges(lo: f64, hi: f64, bins: usize, i: usize) -> (f64, f64) {
        let ratio = hi / lo;
        let k = bins as f64;
        let e_lo = if i == 0 { lo } else { lo * ratio.powf(i as f64 / k) };
        let e_hi = if i + 1 == bins { hi } else { lo * ratio.powf((i + 1) as f64 / k) };
        (e_lo, e_hi)
    }

    fn bin_counts(s: &QuantileSketch, lo: f64, hi: f64, bins: usize) -> Vec<f64> {
        (0..bins)
            .map(|i| {
                let (e_lo, e_hi) = log_edges(lo, hi, bins, i);
                s.rank_below(e_hi) - s.rank_below(e_lo)
            })
            .collect()
    }

    #[test]
    fn rank_below_is_zero_on_an_empty_sketch() {
        let s = QuantileSketch::new();
        assert_eq!(s.rank_below(0.0), 0.0);
        assert_eq!(s.rank_below(1e9), 0.0);
        assert_eq!(s.rank_below(f64::INFINITY), 0.0);
    }

    #[test]
    #[should_panic(expected = "rank of NaN")]
    fn rank_below_nan_panics() {
        let mut s = QuantileSketch::new();
        s.record(1.0);
        s.rank_below(f64::NAN);
    }

    #[test]
    fn a_value_on_a_bin_edge_counts_in_the_upper_bin() {
        let mut s = QuantileSketch::new();
        s.record(1.0); // exactly lo: first bin
        s.record(10.0); // edge between the two bins: second bin
        assert_eq!(bin_counts(&s, 1.0, 100.0, 2), [1.0, 1.0]);
        assert_eq!(s.rank_below(1.0), 0.0, "nothing underflows");
    }

    #[test]
    fn infinite_samples_fall_outside_every_finite_bin() {
        let mut s = QuantileSketch::new();
        s.record(f64::INFINITY);
        s.record(f64::NEG_INFINITY);
        assert_eq!(bin_counts(&s, 1.0, 1000.0, 3), [0.0, 0.0, 0.0]);
        assert_eq!(s.rank_below(1.0), 1.0, "-inf underflows");
        assert_eq!(s.count() as f64 - s.rank_below(1000.0), 1.0, "+inf overflows");
    }

    #[test]
    fn every_value_lands_in_the_bin_whose_edges_contain_it() {
        // Exact powf edges, where an index computed from the value can
        // land one bin off; rank differences at the same edges cannot.
        for i in 0..7 {
            let (lo, hi) = log_edges(1.0, 1000.0, 7, i);
            for v in [lo, (lo + hi) / 2.0, hi - hi * 1e-15] {
                let mut s = QuantileSketch::new();
                s.record(v);
                let counts = bin_counts(&s, 1.0, 1000.0, 7);
                assert_eq!(counts[i], 1.0, "value {v} must land in bin {i}: {counts:?}");
                assert_eq!(counts.iter().sum::<f64>(), 1.0);
            }
        }
    }

    #[test]
    fn rank_below_is_monotone_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..50_000u64 {
            s.record(0.5 + ((i * 2654435761) % 2_000) as f64);
        }
        assert!(s.is_sketching());
        let mut prev = s.rank_below(0.0);
        for j in 1..=4_000 {
            let r = s.rank_below(j as f64 * 0.6);
            assert!(r >= prev, "rank fell from {prev} to {r} at x={}", j as f64 * 0.6);
            prev = r;
        }
        assert_eq!(prev, s.count() as f64);
    }

    #[test]
    fn rank_differences_conserve_mass_when_sketching() {
        let mut s = QuantileSketch::new();
        for i in 0..50_000u64 {
            s.record(0.5 + ((i * 2654435761) % 2_000) as f64);
        }
        assert!(s.is_sketching());
        let binned: f64 = bin_counts(&s, 1.0, 1000.0, 10).iter().sum();
        let underflow = s.rank_below(1.0);
        let overflow = s.count() as f64 - s.rank_below(1000.0);
        assert!(underflow > 0.0 && overflow > 0.0);
        assert!((binned + underflow + overflow - s.count() as f64).abs() < 1e-6);
    }

    #[test]
    fn rank_below_stays_within_rank_error_when_sketching() {
        // Uniform ladder over one decade: the exact count below each bin
        // edge is directly computable, and the estimate may be off by at
        // most n·ε at that edge.
        let n = 30_000u64;
        let value = |i: u64| 1.0 + 9.0 * (i as f64 + 0.5) / n as f64;
        let mut s = QuantileSketch::new();
        for i in 0..n {
            s.record(value(i));
        }
        assert!(s.is_sketching());
        for b in 0..4 {
            let (_, edge) = log_edges(1.0, 10.0, 4, b);
            let exact = (0..n).filter(|&i| value(i) < edge).count() as f64;
            let q = exact / n as f64;
            let tol = (n as f64 * s.rank_error_bound(q)).ceil();
            let est = s.rank_below(edge);
            assert!((est - exact).abs() <= tol, "edge {edge}: {est} vs exact {exact} (tol {tol})");
        }
    }
}
