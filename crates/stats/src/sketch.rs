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
//! relative to the sample count. A sketch with the default threshold (or
//! a lower one) keeps a sorted copy of its samples between queries and
//! appends the new ones to it, so a query per record costs about one
//! pass over the samples rather than a full sort.
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
//! Everything here is deterministic. A compression is defined as: sort
//! the buffered samples (stable), stable-sort them followed by the
//! centroids into one list — a buffered sample goes before a centroid of
//! equal mean — and re-cluster that list in one fixed left-to-right pass
//! in which the current group absorbs its right neighbour while the
//! [`MergeTest`] admits the pair. The same sequence of `record`/`merge`
//! calls therefore always yields the same centroids, bit for bit.
//! [`QuantileSketch::merge`] combines two sketches (used by the sweep
//! runner, which merges per-cell aggregates in cell-index order — making
//! merged reports independent of worker-thread count).
//!
//! # Cost
//!
//! A compression computes exactly that definition while touching little
//! more than what changes. Its basis is a lemma about the merge test: a
//! pair of adjacent centroids with prefix weight `cum` and combined
//! weight `w` merges iff `w ≤ L(n) = 4·x·(n−x)/(n·δ)`, `x = cum + w/2`,
//! and one more sample raises `L` by less than `4/δ`:
//!
//! - a sample landing left of the pair moves `x` and `n` up by one:
//!   `ΔL = 4·(n−x)²/(n·(n+1)·δ) < 4·((n−x)/n)²/δ ≤ 4/δ`;
//! - a sample landing right of it moves `n` only:
//!   `ΔL = 4·x²/(n·(n+1)·δ) < 4·(x/n)²/δ ≤ 4/δ`;
//! - merges elsewhere leave `cum` (and so `x`) unchanged.
//!
//! So a pair tested with slack `s = w − L > 0` keeps rejecting for at
//! least `s·δ/4` more samples, whatever happens around it, as long as no
//! sample lands between its two centroids and neither of them changes.
//! The finer bounds matter in the tails, where the pairs nearest the
//! limit are: for a pair in the lower half only samples landing *left* of
//! it cost up to `4/δ`, and those landing right cost less than `4ρ²/δ`,
//! where `ρ` bounds `x/n` while the left samples stay within budget (the
//! upper half mirrors this). [`MergeTest::expiry`] splits the slack
//! between the two sides and records, per pair, the prefix weight and the
//! weight from the pair on (its *suffix*) at which the pair must be
//! retested — two clocks that advance only with samples landing on their
//! side — with a floating-point margin in the style of [`MergeTest`]'s
//! (a slack of zero or less means "retest next time").
//!
//! In the left-to-right pass, a group start whose pair with its
//! neighbour is not due therefore stays a singleton, and its neighbour
//! starts the next group. Only *dirty* pairs — due ones and those
//! touching a buffered sample — can start a group, so the pass walks
//! those alone and copies every other centroid as it is. It reads the
//! centroids and the sorted buffer as one merged list, inserting the
//! samples as it goes; it sets the expiries of the pairs on both sides of
//! each group it walked, and checks each new group's mean against its two
//! neighbours (a weighted mean can round past a neighbour; the next
//! compression then takes the stable-sort path with every pair due, as it
//! does after [`QuantileSketch::merge`]).
//!
//! The centroids live in chunks of about [`CHUNK`], each with the total
//! weight before it (`base`), every centroid's weight before it within
//! the chunk (`rel`) and bounds on its expiries (`due`, compared with
//! `base` and `n − base`). Weights are integer-valued `f64`s summing to
//! the sample count, so below 2^53 samples `base + rel` is exact and
//! equals the running sum a flat pass would accumulate, bit for bit;
//! quantile, CDF and rank lookups are binary searches over chunks and
//! then within one. The pass rewrites only the chunks a sample lands in
//! or a due pair sits in, and moves the `base` of the others. The hedge
//! policy's access pattern — one sample folded in per `p95` query — thus
//! retests a few pairs in a few chunks per query instead of passing over
//! all of them, and a full 512-sample buffer folds in one pass over the
//! chunks it lands in, computing an expiry for about one pair per sample.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::percentile::{sort_samples, sorted_percentile};
use crate::summary::Summary;

/// Default compression factor δ: ~2·δ centroids retained at steady state.
pub const DEFAULT_COMPRESSION: f64 = 200.0;
/// Default sample count below which the sketch stays exact.
pub const DEFAULT_EXACT_THRESHOLD: usize = 1024;
/// Buffered samples between incremental compressions once sketching.
const BUFFER_CAP: usize = 512;
/// Target centroids per chunk: chunks are split above twice this and
/// joined with a neighbour below half of it. Smaller chunks cut the
/// entries a re-clustering pass scans per due pair, larger ones the
/// per-chunk work of an insertion; 16 is the faster of 8–64 on the hedge
/// access pattern.
const CHUNK: usize = 16;

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

/// A run of consecutive centroids; see the module docs.
#[derive(Debug, Clone)]
struct Chunk {
    /// Total weight of the centroids in earlier chunks.
    base: f64,
    cs: Vec<Centroid>,
    /// `rel[i]`: total weight of `cs[..i]`.
    rel: Vec<f64>,
    /// `expiry[i]`: when the pair of `cs[i]` and its successor (the next
    /// chunk's first centroid, for the last entry) must be retested.
    expiry: Vec<Expiry>,
    /// No pair of this chunk is due while `base < due.prefix` and
    /// `n − base < due.suffix`: the least `expiry[i].prefix − rel[i]` and
    /// `expiry[i].suffix + rel[i]`.
    due: Expiry,
}

/// When a pair must be retested (see the module docs): once the total
/// weight before it reaches `prefix`, or the weight from it on reaches
/// `suffix`. Both are integers, exact as `f64`s.
#[derive(Debug, Clone, Copy)]
struct Expiry {
    prefix: f64,
    suffix: f64,
}

impl Expiry {
    /// Due at once.
    const NOW: Expiry = Expiry { prefix: 0.0, suffix: 0.0 };
    /// Never due: the last centroid has no pair.
    const NEVER: Expiry = Expiry { prefix: f64::INFINITY, suffix: f64::INFINITY };

    /// Whether the pair whose left centroid has prefix `cum` is due at
    /// count `n`.
    #[inline]
    fn is_due(self, cum: f64, n: f64) -> bool {
        cum >= self.prefix || n - cum >= self.suffix
    }
}

/// A position in the merged list of the centroids and the sorted buffered
/// samples: entry `i` of chunk `c`, and buffered sample `s`.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    c: usize,
    i: usize,
    s: usize,
}

impl Cursor {
    /// Steps past the element at the cursor, a sample or an entry.
    fn advance(&mut self, sample: bool) {
        if sample {
            self.s += 1;
        } else {
            self.i += 1;
        }
    }
}

impl Chunk {
    fn new(base: f64) -> Chunk {
        Chunk { base, cs: Vec::new(), rel: Vec::new(), expiry: Vec::new(), due: Expiry::NOW }
    }

    fn len(&self) -> usize {
        self.cs.len()
    }

    /// Exact total weight before centroid `i`.
    fn prefix(&self, i: usize) -> f64 {
        self.base + self.rel[i]
    }

    /// Rank midpoint of centroid `i`.
    fn midpoint(&self, i: usize) -> f64 {
        self.prefix(i) + self.cs[i].weight / 2.0
    }

    /// Total weight of the chunk.
    fn weight(&self) -> f64 {
        self.rel.last().zip(self.cs.last()).map_or(0.0, |(r, c)| r + c.weight)
    }

    /// The first entry from `from` on for which `below` is false, or
    /// `len()`; `below` must be true on a prefix of the entries.
    fn first_above(&self, from: usize, below: impl Fn(&Chunk, usize) -> bool) -> usize {
        let (mut lo, mut hi) = (from, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if below(self, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn truncate(&mut self, len: usize) {
        self.cs.truncate(len);
        self.rel.truncate(len);
        self.expiry.truncate(len);
    }

    /// Whether some pair of the chunk is due at count `n`.
    fn is_due(&self, n: f64) -> bool {
        self.due.is_due(self.base, n)
    }

    fn refresh_due(&mut self) {
        // `<` rather than `f64::min`, which does not vectorise.
        let min = |m: f64, v: f64| if v < m { v } else { m };
        self.due = self.expiry.iter().zip(&self.rel).fold(Expiry::NEVER, |d, (e, &r)| Expiry {
            prefix: min(d.prefix, e.prefix - r),
            suffix: min(d.suffix, e.suffix + r),
        });
    }

    /// Empties the chunk, keeping its capacity, to be rewritten from
    /// total weight `base` on.
    fn clear(&mut self, base: f64) {
        self.base = base;
        self.truncate(0);
    }

    /// Appends the entries `range` of `src`, the first of prefix `cum`,
    /// with their expiries; returns their total weight.
    fn extend(&mut self, src: &Chunk, range: std::ops::Range<usize>, cum: f64) -> f64 {
        let r0 = src.rel[range.start];
        let end = src.rel.get(range.end).copied().unwrap_or_else(|| src.weight());
        let offset = cum - self.base - r0;
        self.cs.extend_from_slice(&src.cs[range.clone()]);
        self.rel.extend(src.rel[range.clone()].iter().map(|r| r + offset));
        self.expiry.extend_from_slice(&src.expiry[range]);
        end - r0
    }

    /// Appends centroid `c` of prefix `cum`, whose pair with its successor
    /// expires at `expiry`.
    fn push(&mut self, c: Centroid, cum: f64, expiry: Expiry) {
        self.cs.push(c);
        self.rel.push(cum - self.base);
        self.expiry.push(expiry);
    }

    fn shrink_to_fit(&mut self) {
        self.cs.shrink_to_fit();
        self.rel.shrink_to_fit();
        self.expiry.shrink_to_fit();
    }

    /// Splits off the entries from `at` on into a chunk of their own.
    fn split_off(&mut self, at: usize) -> Chunk {
        let cut = self.rel[at];
        let mut rel = self.rel.split_off(at);
        for r in &mut rel {
            *r -= cut;
        }
        let mut tail = Chunk {
            base: self.base + cut,
            cs: self.cs.split_off(at),
            rel,
            expiry: self.expiry.split_off(at),
            due: Expiry::NOW,
        };
        self.refresh_due();
        tail.refresh_due();
        tail
    }

    /// Appends the next chunk's entries.
    fn append(&mut self, next: Chunk) {
        let offset = next.base - self.base;
        self.cs.extend_from_slice(&next.cs);
        self.rel.extend(next.rel.iter().map(|r| r + offset));
        self.expiry.extend_from_slice(&next.expiry);
        self.refresh_due();
    }
}

/// A mergeable t-digest quantile sketch; see the module docs for the
/// error bound and determinism guarantees.
///
/// Equality and the serialized form cover the sketch's state only: the
/// samples, the centroid list and the counters. Its chunking, prefixes,
/// expiries, the exact-mode sorted copy and the spare chunk are derived
/// from it or scratch.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    compression: f64,
    exact_threshold: usize,
    /// Uncompressed recent samples (all samples, while in exact mode).
    buffer: Vec<f64>,
    /// Weighted centroids in chunks, ascending by mean; no chunk is empty,
    /// and there is none while in exact mode.
    chunks: Vec<Chunk>,
    count: u64,
    min: f64,
    max: f64,
    /// Whether the centroid means are known to ascend: false after a
    /// `merge` appended centroids, or a weighted mean rounded past a
    /// neighbour.
    ordered: bool,
    /// Exact mode: the first `sorted.len()` buffered samples, stable-sorted.
    sorted: Vec<f64>,
    /// Scratch space the re-clustering pass rewrites a chunk into.
    spare: Chunk,
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.compression == other.compression
            && self.exact_threshold == other.exact_threshold
            && self.buffer == other.buffer
            && self.centroids().eq(other.centroids())
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
            ("centroids".into(), self.centroids().collect::<Vec<_>>().serialize()),
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
        let centroids: Vec<Centroid> = serde::field(entries, "centroids")?;
        let mut s = QuantileSketch {
            compression: serde::field(entries, "compression")?,
            exact_threshold: serde::field(entries, "exact_threshold")?,
            buffer: serde::field(entries, "buffer")?,
            chunks: Vec::new(),
            count: serde::field(entries, "count")?,
            min: serde::field(entries, "min")?,
            max: serde::field(entries, "max")?,
            ordered: centroids.windows(2).all(|p| p[0].mean <= p[1].mean),
            sorted: Vec::new(),
            spare: Chunk::new(0.0),
        };
        s.load(&centroids);
        Ok(s)
    }
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
            chunks: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ordered: true,
            sorted: Vec::new(),
            spare: Chunk::new(0.0),
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
        !self.chunks.is_empty()
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
        self.sorted.clear();
        if other.is_sketching() {
            let base = self.centroid_weight();
            self.chunks
                .extend(other.chunks.iter().map(|c| Chunk { base: base + c.base, ..c.clone() }));
            self.ordered = false;
        }
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
            return sorted_percentile(&self.exact_sorted(), q);
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        let n = self.count as f64;
        let target = q * n;
        // Interpolate piecewise-linearly between centroid rank midpoints,
        // anchored at min (rank 0) and max (rank n). The midpoints are
        // strictly increasing, so the first one above `target` is a binary
        // search away: a centroid's midpoint lies between its prefix and
        // the next one's, so it is in the last chunk whose base is at most
        // `target`, or first in the chunk after.
        let c = self.chunks.partition_point(|ch| ch.base <= target).max(1) - 1;
        let (c, i) = match self.chunks[c].first_above(0, |ch, i| ch.midpoint(i) <= target) {
            i if i < self.chunks[c].len() => (c, i),
            _ => (c + 1, 0),
        };
        let (prev_mid, prev_mean) = self.left_anchor(c, i);
        if let Some(ch) = self.chunks.get(c) {
            let mid = ch.midpoint(i);
            let t = if mid > prev_mid { (target - prev_mid) / (mid - prev_mid) } else { 0.0 };
            return lerp(prev_mean, ch.cs[i].mean, t).clamp(self.min, self.max);
        }
        let t = if n > prev_mid { (target - prev_mid) / (n - prev_mid) } else { 1.0 };
        lerp(prev_mean, self.max, t).clamp(self.min, self.max)
    }

    /// The first centroid, as `(chunk, slot)`, for which `below` is false
    /// — `(chunks.len(), 0)` if there is none. `below` must be true on a
    /// prefix of the centroids.
    fn search(&self, below: impl Fn(&Chunk, usize) -> bool) -> (usize, usize) {
        let c = self.chunks.partition_point(|ch| below(ch, 0));
        let Some(ch) = c.checked_sub(1).map(|p| &self.chunks[p]) else {
            return (0, 0);
        };
        match ch.first_above(1, below) {
            i if i < ch.len() => (c - 1, i),
            _ => (c, 0),
        }
    }

    /// `(rank midpoint, mean)` of the centroid before slot `i` of chunk
    /// `c`, or the `(0, min)` anchor before the first.
    fn left_anchor(&self, c: usize, i: usize) -> (f64, f64) {
        let prev = match i.checked_sub(1) {
            Some(p) => Some((c, p)),
            None => c.checked_sub(1).map(|p| (p, self.chunks[p].len() - 1)),
        };
        match prev {
            Some((p, j)) => (self.chunks[p].midpoint(j), self.chunks[p].cs[j].mean),
            None => (0.0, self.min),
        }
    }

    /// The centroids in order.
    fn centroids(&self) -> impl Iterator<Item = Centroid> + '_ {
        self.chunks.iter().flat_map(|ch| ch.cs.iter().copied())
    }

    /// Total weight of the centroids.
    fn centroid_weight(&self) -> f64 {
        self.chunks.last().map_or(0.0, |ch| ch.base + ch.weight())
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
        self.chunks.iter().map(Chunk::len).sum()
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
    /// mean exceeds `x`, then read off the prefixes like `quantile`.
    fn centroid_rank(&self, x: f64, inclusive: bool) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let nc = (self.count - self.buffer.len() as u64) as f64;
        if x < self.min || (!inclusive && x <= self.min) {
            return 0.0;
        }
        if x >= self.max {
            return nc;
        }
        let (c, i) = self.search(|ch, i| ch.cs[i].mean <= x);
        let (prev_mid, prev_mean) = self.left_anchor(c, i);
        if let Some(ch) = self.chunks.get(c) {
            let (mid, mean) = (ch.midpoint(i), ch.cs[i].mean);
            let t = if mean > prev_mean { (x - prev_mean) / (mean - prev_mean) } else { 0.0 };
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
            let sorted = self.exact_sorted();
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

    /// Exact mode: every sample in stable sorted order, as
    /// [`sort_samples`] orders the buffer. A sketch whose threshold is at
    /// most [`DEFAULT_EXACT_THRESHOLD`] keeps the sorted copy between
    /// queries: samples recorded since the last one are appended to it and
    /// the copy is sorted again, which the stable sort does in about one
    /// pass over the sorted run it starts with (equal values keep their
    /// recording order). Above it — exact-mode aggregates, which never
    /// compress and are mostly queried once — a kept copy would double
    /// the samples' memory for good (paper-sweep's peak RSS rose 12%), so
    /// each query sorts a fresh one.
    fn exact_sorted(&mut self) -> Cow<'_, [f64]> {
        if self.exact_threshold > DEFAULT_EXACT_THRESHOLD {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return Cow::Owned(sorted);
        }
        if self.sorted.len() < self.buffer.len() {
            self.sorted.extend_from_slice(&self.buffer[self.sorted.len()..]);
            sort_samples(&mut self.sorted);
        }
        Cow::Borrowed(&self.sorted)
    }

    /// Folds the buffered samples into the centroids: sorts them and runs
    /// the re-clustering pass, which inserts them as it goes. When the
    /// centroids may be out of order, the list is first rebuilt as the
    /// stable sort of "samples, then centroids" with every pair due.
    fn compress(&mut self) {
        sort_samples(&mut self.buffer);
        self.sorted = Vec::new();
        if !self.ordered {
            let mut all: Vec<Centroid> =
                self.buffer.drain(..).map(|v| Centroid { mean: v, weight: 1.0 }).collect();
            all.extend(self.centroids());
            all.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("NaN centroid"));
            self.load(&all);
            self.ordered = true;
        }
        if self.chunks.is_empty() {
            self.chunks.push(Chunk::new(0.0));
        }
        self.recluster();
        if self.chunks.iter().any(|ch| !(CHUNK / 2..=2 * CHUNK).contains(&ch.len())) {
            self.rebalance();
        }
    }

    /// Replaces the centroids with `centroids`, every pair due.
    fn load(&mut self, centroids: &[Centroid]) {
        self.chunks.clear();
        let mut base = 0.0;
        for part in centroids.chunks(CHUNK) {
            let mut ch = Chunk::new(base);
            for &c in part {
                ch.rel.push(ch.weight());
                ch.cs.push(c);
            }
            ch.expiry.resize(part.len(), Expiry::NOW);
            base += ch.weight();
            self.chunks.push(ch);
        }
    }

    /// The re-clustering pass (see the module docs). It reads the merged
    /// list of the centroids and the sorted buffer, chunk by chunk, and
    /// clears the buffer. A chunk that no sample lands in and whose pairs
    /// are not due only has its `base` moved; any other is rewritten into
    /// the spare chunk, which then takes its place. In a rewritten chunk an
    /// element whose pair is not dirty is copied, and a dirty one starts a
    /// group walk; the pairs on both sides of each group get fresh
    /// expiries.
    fn recluster(&mut self) {
        let n = self.count as f64;
        let test = MergeTest::new(n, self.compression);
        let buf = std::mem::take(&mut self.buffer);
        let mut out = std::mem::replace(&mut self.spare, Chunk::new(0.0));
        let (mut at, mut cum) = (Cursor { c: 0, i: 0, s: 0 }, 0.0);
        // `land`: the next sample and the chunk it lands in.
        let mut land = (usize::MAX, 0);
        // Whether the last entry written waits for the next walk to set its
        // expiry.
        let mut pending = false;
        while at.c < self.chunks.len() {
            let c = at.c;
            if at.i == 0 {
                if land.0 != at.s {
                    land = (at.s, self.landing(&buf, at));
                }
                // Merges keep the weight, so the chunk's prefix moves up by
                // the samples inserted before it.
                let ch = &mut self.chunks[c];
                cum = ch.base + at.s as f64;
                ch.base = cum;
                if land.1 != c && !ch.is_due(n) {
                    at.c += 1;
                    continue;
                }
            }
            out.clear(cum);
            while let Some((e, sample)) = self.peek(&buf, at) {
                if !sample {
                    let end = self.clean_run(&buf, at, cum, n);
                    if end > at.i {
                        cum += out.extend(&self.chunks[c], at.i..end, cum);
                        at.i = end;
                        continue;
                    }
                }
                at.advance(sample);
                let (group, next) = self.walk(&buf, e, cum, &mut at, &test);
                let grew = group.weight != e.weight;
                // The entry before the group: the last one written, here or
                // in the nearest earlier chunk that is not empty.
                let in_out = out.len() > 0;
                let prev = match in_out {
                    _ if !grew && !pending => None,
                    true => Some(&mut out),
                    false => self.chunks[..c].iter_mut().rev().find(|ch| ch.len() > 0),
                };
                if let Some(ch) = prev {
                    let last = ch.len() - 1;
                    let p = ch.cs[last];
                    self.ordered &= !grew || p.mean <= group.mean;
                    ch.expiry[last] = test.expiry(cum - p.weight, p.weight + group.weight);
                    if !in_out {
                        ch.refresh_due();
                    }
                }
                // A dirty neighbour starts the next walk, which sets this
                // expiry.
                pending = next.is_some_and(|(_, sample)| {
                    sample || self.entry_dirty(&buf, at, cum + group.weight, n)
                });
                let after = match next {
                    Some((next, _)) => {
                        self.ordered &= !grew || group.mean <= next.mean;
                        match pending {
                            true => Expiry::NOW,
                            false => test.expiry(cum, group.weight + next.weight),
                        }
                    }
                    None => Expiry::NEVER,
                };
                out.push(group, cum, after);
                cum += group.weight;
                if at.c != c {
                    break;
                }
            }
            std::mem::swap(&mut self.chunks[c], &mut out);
            self.chunks[c].refresh_due();
            if at.c == c {
                at = Cursor { c: c + 1, i: 0, s: at.s };
            }
            for ch in &mut self.chunks[c + 1..at.c] {
                ch.truncate(0);
            }
        }
        out.clear(0.0);
        self.spare = out;
        self.buffer = buf;
        self.buffer.clear();
    }

    /// The chunk that buffered sample `at.s` lands in, from chunk `at.c` on
    /// (`usize::MAX` if there is none): the last one whose first mean is
    /// below it, or chunk `at.c`.
    fn landing(&self, buf: &[f64], at: Cursor) -> usize {
        let Some(&v) = buf.get(at.s) else {
            return usize::MAX;
        };
        // Gallop: the samples ascend, so the chunk is rarely far.
        let rest = &self.chunks[at.c + 1..];
        let mut hi = 1;
        while hi <= rest.len() && rest[hi - 1].cs[0].mean < v {
            hi *= 2;
        }
        let lo = hi / 2;
        at.c + lo + rest[lo..hi.min(rest.len())].partition_point(|ch| ch.cs[0].mean < v)
    }

    /// The mean of chunk `c + 1`'s first centroid (∞ after the last
    /// chunk): chunk `c` takes the buffered samples up to it.
    fn next_first(&self, c: usize) -> f64 {
        self.chunks.get(c + 1).map_or(f64::INFINITY, |next| next.cs[0].mean)
    }

    /// The element at `at` of the merged list, restricted to chunk `at.c`,
    /// and whether it is a buffered sample: a sample goes before a
    /// centroid of equal mean. `None` past the chunk's end.
    fn peek(&self, buf: &[f64], at: Cursor) -> Option<(Centroid, bool)> {
        let entry = self.chunks[at.c].cs.get(at.i);
        let bound = entry.map_or_else(|| self.next_first(at.c), |e| e.mean);
        match buf.get(at.s) {
            Some(&v) if v <= bound => Some((Centroid { mean: v, weight: 1.0 }, true)),
            _ => entry.map(|&e| (e, false)),
        }
    }

    /// The end of the run of entries from `at.i` on, of prefix `cum`, whose
    /// pairs are not dirty: it stops at the first due pair or the first
    /// entry a buffered sample follows.
    fn clean_run(&self, buf: &[f64], at: Cursor, cum: f64, n: f64) -> usize {
        let ch = &self.chunks[at.c];
        // The sample, if it lands here, goes after at least entry `at.i`.
        let stop = match buf.get(at.s) {
            Some(&v) if v <= self.next_first(at.c) => {
                let last = ch.len() - 1;
                at.i + ch.cs[at.i + 1..].iter().position(|e| v <= e.mean).unwrap_or(last - at.i)
            }
            _ => ch.len(),
        };
        let shift = cum - ch.rel[at.i];
        let (expiry, rel) = (&ch.expiry[at.i..stop], &ch.rel[at.i..stop]);
        at.i + expiry
            .iter()
            .zip(rel)
            .position(|(e, &r)| e.is_due(shift + r, n))
            .unwrap_or(stop - at.i)
    }

    /// Whether the pair that the entry at `at`, of prefix `cum`, forms
    /// with its successor may merge: a sample comes next, or the pair's
    /// expiry has come.
    fn entry_dirty(&self, buf: &[f64], at: Cursor, cum: f64, n: f64) -> bool {
        let ch = &self.chunks[at.c];
        let succ = ch.cs.get(at.i + 1).map_or_else(|| self.next_first(at.c), |e| e.mean);
        buf.get(at.s).is_some_and(|&v| v <= succ) || ch.expiry[at.i].is_due(cum, n)
    }

    /// Continues the walk of group `cur`, of prefix `cum`, from `at` on,
    /// through later chunks if it reaches a chunk's end. Returns the group
    /// and the first element it did not absorb, as [`peek`](Self::peek)
    /// gives it, and leaves `at` there (or at the end of the last chunk).
    #[allow(clippy::type_complexity)]
    fn walk(
        &self,
        buf: &[f64],
        mut cur: Centroid,
        cum: f64,
        at: &mut Cursor,
        test: &MergeTest,
    ) -> (Centroid, Option<(Centroid, bool)>) {
        loop {
            let next = match self.peek(buf, *at) {
                None if at.c + 1 < self.chunks.len() => {
                    *at = Cursor { c: at.c + 1, i: 0, s: at.s };
                    continue;
                }
                next => next,
            };
            match next {
                Some((e, sample)) => match test.absorbs(cum, cur, e) {
                    Some(g) => {
                        cur = g;
                        at.advance(sample);
                    }
                    None => return (cur, next),
                },
                None => return (cur, None),
            }
        }
    }

    /// Drops empty chunks, splits those above `2·CHUNK` entries and joins
    /// those below `CHUNK/2` with their successor (the last chunk with its
    /// predecessor).
    fn rebalance(&mut self) {
        self.chunks.retain(|ch| ch.len() > 0);
        let mut c = 0;
        while c < self.chunks.len() {
            let len = self.chunks[c].len();
            if len > 2 * CHUNK {
                // Pieces off the back, so each is allocated at its size;
                // the first keeps the rest and gives back what it held.
                for at in (1..len / CHUNK).rev() {
                    let piece = self.chunks[c].split_off(at * CHUNK);
                    self.chunks.insert(c + 1, piece);
                }
                self.chunks[c].shrink_to_fit();
            } else if len < CHUNK / 2 && self.chunks.len() > 1 {
                c = c.min(self.chunks.len() - 2);
                let next = self.chunks.remove(c + 1);
                self.chunks[c].append(next);
                continue;
            }
            c += 1;
        }
    }
}

#[cfg(test)]
impl QuantileSketch {
    /// Every centroid's exact prefix weight, `base + rel`.
    fn prefixes(&self) -> Vec<f64> {
        self.chunks.iter().flat_map(|ch| (0..ch.len()).map(move |i| ch.prefix(i))).collect()
    }

    /// Checks the derived state against the centroid list: no empty
    /// chunk, every prefix equal to a fresh running sum, every chunk's
    /// `due` a bound on its expiries unless it is due already, `ordered`
    /// only when the means ascend,
    /// and — with nothing buffered — every pair that has not expired
    /// rejected by the merge test at the current count.
    fn check_index(&self) -> Result<(), String> {
        let mut cum = 0.0;
        let mut entries = Vec::new();
        for (c, ch) in self.chunks.iter().enumerate() {
            if ch.len() == 0 || ch.rel.len() != ch.len() || ch.expiry.len() != ch.len() {
                return Err(format!("chunk {c} is empty or ragged"));
            }
            for i in 0..ch.len() {
                if ch.prefix(i) != cum {
                    return Err(format!("chunk {c} entry {i}: prefix {} != {cum}", ch.prefix(i)));
                }
                // A chunk that is not due bounds every entry's expiry.
                let e = ch.expiry[i];
                let below =
                    e.prefix - ch.rel[i] < ch.due.prefix || e.suffix + ch.rel[i] < ch.due.suffix;
                if below && !ch.is_due(self.count as f64) {
                    return Err(format!(
                        "chunk {c} entry {i}: {e:?} passes the chunk's {:?}",
                        ch.due
                    ));
                }
                entries.push((cum, ch.cs[i], ch.expiry[i]));
                cum += ch.cs[i].weight;
            }
        }
        if self.ordered && !entries.windows(2).all(|p| p[0].1.mean <= p[1].1.mean) {
            return Err("out of order but flagged ordered".into());
        }
        if !self.buffer.is_empty() {
            return Ok(());
        }
        let n = self.count as f64;
        let test = MergeTest::new(n, self.compression);
        for (i, p) in entries.windows(2).enumerate() {
            let ((pre, a, expiry), (_, b, _)) = (p[0], p[1]);
            let opposite_infinities = a.mean == f64::NEG_INFINITY && b.mean == f64::INFINITY;
            if !expiry.is_due(pre, n)
                && !opposite_infinities
                && test.admits(pre, a.weight + b.weight)
            {
                return Err(format!("pair {i} merges at {n} before its {expiry:?}"));
            }
        }
        Ok(())
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
/// limit formula, and no pair has an expiry.
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
    /// [`expiry`](Self::expiry)'s constants: the most samples either side
    /// may take, `1 − M` at the count they can lead to, and the samples
    /// per unit of slack on the steep side and (before the `1/ρ²` factor)
    /// on the other.
    room: f64,
    keep: f64,
    near_per_slack: f64,
    far_per_slack: f64,
}

impl MergeTest {
    fn new(n: f64, delta: f64) -> MergeTest {
        let (below, above) = if n <= ESTIMATE_RANGE && delta <= ESTIMATE_RANGE {
            let k = 4.0 / (n * delta);
            let margin = margin(n);
            (k * (1.0 - margin), k * (1.0 + margin))
        } else {
            (0.0, f64::INFINITY)
        };
        let room = ((ESTIMATE_RANGE - n) / 2.0).min(n);
        MergeTest {
            n,
            delta,
            below,
            above,
            room,
            keep: 1.0 - margin(n + 2.0 * room),
            near_per_slack: 0.75 * delta / 4.0,
            far_per_slack: 0.25 * delta / 4.0,
        }
    }

    /// The group `cur` of prefix `cum` with `next` absorbed, if the pair's
    /// combined weight stays within the limit at its midpoint rank.
    #[inline]
    fn absorbs(&self, cum: f64, cur: Centroid, next: Centroid) -> Option<Centroid> {
        let w = cur.weight + next.weight;
        // −∞ and +∞ never merge: their weighted mean is NaN.
        let opposite_infinities = cur.mean == f64::NEG_INFINITY && next.mean == f64::INFINITY;
        if opposite_infinities || !self.admits(cum, w) {
            return None;
        }
        // Weighted mean; `cur.mean <= next.mean` so the result stays within
        // the pair's span.
        Some(Centroid { mean: (cur.mean * cur.weight + next.mean * next.weight) / w, weight: w })
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

    /// When a pair of prefix `cum` and combined weight `w` must be
    /// retested: the formula rejects the pair in every state until the
    /// weight before it reaches `prefix` or the weight from it on reaches
    /// `suffix`, however the samples recorded meanwhile land (see the
    /// module docs' lemma). [`Expiry::NOW`] when the pair may merge now.
    ///
    /// With `l` samples landing left and `r` right, the limit stays below
    /// `L(n) + 4/δ·l + 4ρ²/δ·r` for a pair in the lower half (`ρ` bounds
    /// `x/n` over those states) and `L(n) + 4ρ²/δ·l + 4/δ·r` in the upper
    /// half (`ρ` bounds `(n−x)/n`). Three quarters of the slack
    /// `w·(1 − M) − L̂`, `L̂ = x·(n−x)·above >= L(n)`, go to the steep
    /// side and a quarter to the other; each side takes at most `n` more
    /// samples (and the count stays within [`ESTIMATE_RANGE`]), so `M` is
    /// taken at `n` plus twice that room. The formula's value exceeds the
    /// limit by less than `M/4` relative (see [`MergeTest`]); the rest
    /// of `M`, at least `384u·w` of slack, absorbs the few roundings of
    /// this computation, and the thresholds are rounded down. The one
    /// division is the `1/ρ²` factor; the branches are selects, as pairs
    /// fall on either side of the middle unpredictably.
    #[inline]
    fn expiry(&self, cum: f64, w: f64) -> Expiry {
        let n = self.n;
        let x = cum + w / 2.0;
        let slack = w * self.keep - x * (n - x) * self.above;
        if slack <= 0.0 || slack.is_nan() {
            return Expiry::NOW;
        }
        let near = (slack * self.near_per_slack).min(self.room);
        // `ρ = (side + near)/(n + near)`, `side` the pair's weight towards
        // its nearer end.
        let lower = x <= n - x;
        let side = if lower { x } else { n - x };
        let inv_rho = (n + near) / (side + near);
        let far = (slack * self.far_per_slack * inv_rho * inv_rho).min(self.room);
        let (l, r) = if lower { (near, far) } else { (far, near) };
        // Both are positive and below 2^40: truncation is their floor.
        Expiry { prefix: cum + (l as i64) as f64, suffix: (n - cum) + (r as i64) as f64 }
    }
}

/// [`MergeTest`]'s relative margin `M = 8u·(n + 64)` at count `n`.
fn margin(n: f64) -> f64 {
    8.0 * (f64::EPSILON / 2.0) * (n + 64.0)
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
            return Summary::from_sorted(&self.sketch.exact_sorted());
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
        bits_digest(s.centroids().flat_map(|c| [c.mean, c.weight]))
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
        assert_eq!(back.prefixes(), s.prefixes(), "the prefixes are rebuilt on deserialize");
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
        assert!(s.centroids().all(|c| !c.mean.is_nan()));
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
