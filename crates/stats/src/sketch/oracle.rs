//! Oracle tests for [`QuantileSketch`]: the indexed compression and
//! lookups must reproduce, bit for bit, the straightforward algorithm they
//! replaced — concatenate the buffer and the centroids, stable-sort, then
//! re-cluster with a running weight sum; look quantiles and ranks up by a
//! linear scan.

use proptest::prelude::*;

use super::*;

/// The straightforward sketch, kept as the reference: same state, same
/// thresholds and merge rule (including never merging −∞ with +∞), same
/// interpolation (through [`lerp`]), none of the indexing.
#[derive(Clone)]
struct Reference {
    compression: f64,
    exact_threshold: usize,
    buffer: Vec<f64>,
    centroids: Vec<Centroid>,
    count: u64,
    min: f64,
    max: f64,
}

impl Reference {
    fn new(compression: f64, exact_threshold: usize) -> Reference {
        Reference {
            compression,
            exact_threshold,
            buffer: Vec::new(),
            centroids: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buffer.push(v);
        if !self.centroids.is_empty() {
            if self.buffer.len() >= BUFFER_CAP {
                self.compress();
            }
        } else if self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    fn merge(&mut self, other: &Reference) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.buffer.extend_from_slice(&other.buffer);
        self.centroids.extend_from_slice(&other.centroids);
        if !self.centroids.is_empty() || self.buffer.len() > self.exact_threshold {
            self.compress();
        }
    }

    fn quantile(&mut self, q: f64) -> f64 {
        if self.centroids.is_empty() {
            let mut sorted = self.buffer.clone();
            sort_samples(&mut sorted);
            return sorted_percentile(&sorted, q);
        }
        if !self.buffer.is_empty() {
            self.compress();
        }
        let n = self.count as f64;
        let target = q * n;
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if target < mid {
                let t = if mid > prev_mid { (target - prev_mid) / (mid - prev_mid) } else { 0.0 };
                return lerp(prev_mean, c.mean, t).clamp(self.min, self.max);
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let t = if n > prev_mid { (target - prev_mid) / (n - prev_mid) } else { 1.0 };
        lerp(prev_mean, self.max, t).clamp(self.min, self.max)
    }

    /// Strict rank of `x` (`rank_below`), by linear scan.
    fn rank_below(&self, x: f64) -> f64 {
        let buffered = self.buffer.iter().filter(|&&v| v < x).count() as f64;
        if self.centroids.is_empty() {
            return buffered;
        }
        let nc = (self.count - self.buffer.len() as u64) as f64;
        if x <= self.min {
            return buffered;
        }
        if x >= self.max {
            return buffered + nc;
        }
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if x < c.mean {
                let t =
                    if c.mean > prev_mean { (x - prev_mean) / (c.mean - prev_mean) } else { 0.0 };
                return buffered + (prev_mid + t * (mid - prev_mid)).clamp(0.0, nc);
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let t = if self.max > prev_mean { (x - prev_mean) / (self.max - prev_mean) } else { 1.0 };
        buffered + (prev_mid + t * (nc - prev_mid)).clamp(0.0, nc)
    }

    fn compress(&mut self) {
        sort_samples(&mut self.buffer);
        let mut merged: Vec<Centroid> =
            Vec::with_capacity(self.centroids.len() + self.buffer.len());
        merged.extend(self.buffer.drain(..).map(|v| Centroid { mean: v, weight: 1.0 }));
        merged.append(&mut self.centroids);
        merged.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("NaN centroid"));

        let n = self.count as f64;
        let delta = self.compression;
        let mut out: Vec<Centroid> = Vec::new();
        let mut iter = merged.into_iter();
        let mut cur = iter.next().expect("compress on empty sketch");
        let mut cum = 0.0;
        for c in iter {
            let w = cur.weight + c.weight;
            let q_mid = (cum + w / 2.0) / n;
            let limit = (4.0 * n * q_mid * (1.0 - q_mid) / delta).max(1.0);
            let opposite_infinities = cur.mean == f64::NEG_INFINITY && c.mean == f64::INFINITY;
            if w <= limit && !opposite_infinities {
                cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
                cur.weight = w;
            } else {
                cum += cur.weight;
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }

    fn ordered(&self) -> bool {
        self.centroids.windows(2).all(|p| p[0].mean <= p[1].mean)
    }
}

/// Equal bit patterns (any NaN matches any NaN).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn bits(centroids: &[Centroid]) -> Vec<(u64, u64)> {
    centroids.iter().map(|c| (c.mean.to_bits(), c.weight.to_bits())).collect()
}

/// Asserts the sketch's state is the reference's, bit for bit, and that
/// its prefix index matches a fresh running sum.
fn check_state(s: &QuantileSketch, r: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.count, r.count);
    prop_assert_eq!(bits(&s.centroids), bits(&r.centroids));
    prop_assert_eq!(&s.buffer, &r.buffer);
    prop_assert_eq!(&s.pre, &prefix_weights(&s.centroids));
    Ok(())
}

/// A deterministic value stream: `levels` tie values (quarter-ms steps,
/// including both zeros), a uniform spread, and ±∞ at `inf_per_mille`.
struct Values {
    state: u64,
    levels: u64,
    inf_per_mille: u64,
}

impl Values {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_value(&mut self) -> f64 {
        let z = self.next_u64();
        match z % 1000 {
            k if k < self.inf_per_mille => {
                if z & (1 << 20) == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            k if k < 700 => match (z >> 12) % self.levels {
                0 => -0.0,
                level => level as f64 * 0.25,
            },
            _ => self.unit() * 50.0,
        }
    }
}

/// Records `len` values into both sketches, querying a random quantile and
/// rank every `batch` records, round-tripping the sketch through JSON at
/// `round_trip_at`, and checking state and answers at every query.
fn drive(
    s: &mut QuantileSketch,
    r: &mut Reference,
    values: &mut Values,
    len: usize,
    batch: usize,
    round_trip_at: usize,
) -> Result<(), TestCaseError> {
    for i in 0..len {
        let v = values.next_value();
        s.record(v);
        r.record(v);
        // JSON has no spelling for ±∞, so only finite sketches round-trip.
        if i == round_trip_at && s.min.is_finite() && s.max.is_finite() {
            let json = serde_json::to_string(&*s).expect("serialize");
            let back: QuantileSketch = serde_json::from_str(&json).expect("deserialize");
            prop_assert!(back == *s, "round trip changed the sketch");
            *s = back;
        }
        if (i + 1) % batch == 0 {
            let q = values.unit();
            let (got, want) = (s.quantile(q), r.quantile(q));
            prop_assert!(same(got, want), "q={}: {} vs {}", q, got, want);
            check_state(s, r)?;
            if r.ordered() {
                let x = values.next_value();
                let (got, want) = (s.rank_below(x), r.rank_below(x));
                prop_assert!(same(got, want), "rank_below({}): {} vs {}", x, got, want);
            }
        }
    }
    check_state(s, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Record/query interleavings, with ties, signed zeros and
    /// infinities, across compressions, thresholds and batch sizes.
    fn indexed_sketch_matches_reference(
        seed in any::<u64>(),
        levels in 1u64..48,
        inf_per_mille in prop_oneof![Just(0u64), 0u64..40],
        delta in 10u64..300,
        threshold in 0usize..1100,
        batch in prop_oneof![1usize..8, 1usize..=512],
        len in 1usize..5000,
    ) {
        let mut values = Values { state: seed, levels, inf_per_mille };
        let mut s = QuantileSketch::with_params(delta as f64, threshold);
        let mut r = Reference::new(delta as f64, threshold);
        let round_trip_at = (values.next_u64() % len as u64) as usize;
        drive(&mut s, &mut r, &mut values, len, batch, round_trip_at)?;
    }

    /// `merge` of two independently grown sketches, then more records.
    fn merged_sketch_matches_reference(
        seed in any::<u64>(),
        levels in 1u64..48,
        inf_per_mille in prop_oneof![Just(0u64), 0u64..40],
        delta in 10u64..300,
        threshold in 0usize..1100,
        batch in 1usize..=512,
        lens in (1usize..4000, 1usize..4000, 0usize..2000),
    ) {
        let mut values = Values { state: seed, levels, inf_per_mille };
        let (mut a, mut ra) = (
            QuantileSketch::with_params(delta as f64, threshold),
            Reference::new(delta as f64, threshold),
        );
        let (mut b, mut rb) = (a.clone(), ra.clone());
        drive(&mut a, &mut ra, &mut values, lens.0, batch, usize::MAX)?;
        drive(&mut b, &mut rb, &mut values, lens.1, batch, usize::MAX)?;
        a.merge(&b);
        ra.merge(&rb);
        check_state(&a, &ra)?;
        let q = values.unit();
        let (got, want) = (a.quantile(q), ra.quantile(q));
        prop_assert!(same(got, want), "q={}: {} vs {}", q, got, want);
        drive(&mut a, &mut ra, &mut values, lens.2, batch, usize::MAX)?;
    }
}

#[test]
fn merge_test_decisions_equal_the_limit_formula_at_the_limit() {
    // Weights at and next to the real-valued limit, including limits that
    // are exact integers (`x = n/2`, `n` a multiple of `2δ`), where only
    // the formula can decide.
    for n in [2.0, 3.0, 1025.0, 200_000.0, 1e9, 2f64.powi(40), 2f64.powi(41)] {
        for delta in [10.0, 200.0, 1000.0] {
            let test = MergeTest::new(n, delta);
            for x in [1.0, 1.5, (n / 4.0).round(), n / 2.0, (n * 0.95).round(), n - 1.0] {
                let limit = 4.0 * x * (n - x) / (n * delta);
                for w in [limit.floor() - 1.0, limit.floor(), limit.ceil(), limit.ceil() + 1.0] {
                    let cum = x - w / 2.0;
                    if w < 2.0 || cum < 0.0 || x + w / 2.0 > n {
                        continue;
                    }
                    let q_mid = (cum + w / 2.0) / n;
                    let want = w <= (4.0 * n * q_mid * (1.0 - q_mid) / delta).max(1.0);
                    assert_eq!(test.admits(cum, w), want, "n={n} delta={delta} x={x} w={w}");
                    assert!(
                        !(want && test.surely_rejects(cum, w)),
                        "n={n} delta={delta} x={x} w={w}"
                    );
                }
            }
        }
    }
}
