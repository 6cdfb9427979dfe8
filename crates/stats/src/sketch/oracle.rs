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
/// its chunk index is consistent with it (see `check_index`).
fn check_state(s: &QuantileSketch, r: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.count, r.count);
    prop_assert_eq!(bits(&s.centroids().collect::<Vec<_>>()), bits(&r.centroids));
    prop_assert_eq!(&s.buffer, &r.buffer);
    if let Err(e) = s.check_index() {
        return Err(TestCaseError::fail(e));
    }
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

/// The oracle's case count: `PROPTEST_CASES` when set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

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
                        !want || test.expiry(cum, w).is_due(cum, n),
                        "n={n} delta={delta} x={x} w={w}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48).div_ceil(48)))]

    /// The hedge policy's access pattern for 10^5 records: record one,
    /// query one. Every compression then inserts a single sample, and
    /// expiries span thousands of samples.
    fn record_one_query_one_matches_reference(
        seed in any::<u64>(),
        levels in 1u64..400,
        inf_per_mille in prop_oneof![Just(0u64), 0u64..4],
        delta in 11u64..1000,
    ) {
        for delta in [10, 200, delta] {
            let mut values = Values { state: seed ^ delta, levels, inf_per_mille };
            let mut s = QuantileSketch::with_params(delta as f64, DEFAULT_EXACT_THRESHOLD);
            let mut r = Reference::new(delta as f64, DEFAULT_EXACT_THRESHOLD);
            for i in 0..100_000 {
                let v = values.next_value();
                s.record(v);
                r.record(v);
                let q = values.unit();
                let (got, want) = (s.quantile(q), r.quantile(q));
                prop_assert!(same(got, want), "δ={} record {}, q={}: {} vs {}", delta, i, q, got, want);
                if i % 4_999 == 0 {
                    check_state(&s, &r)?;
                }
            }
            check_state(&s, &r)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// `merge` alternating with single records: each merge takes the
    /// stable-sort path with every pair due, and the records after it the
    /// insertion path from that state.
    fn merges_alternating_with_records_match_reference(
        seed in any::<u64>(),
        levels in 1u64..48,
        inf_per_mille in prop_oneof![Just(0u64), 0u64..40],
        delta in 10u64..300,
        threshold in 0usize..1100,
        rounds in 1usize..40,
        part in 1u64..1500,
    ) {
        let mut values = Values { state: seed, levels, inf_per_mille };
        let mut s = QuantileSketch::with_params(delta as f64, threshold);
        let mut r = Reference::new(delta as f64, threshold);
        for _ in 0..rounds {
            let (mut b, mut rb) = (
                QuantileSketch::with_params(delta as f64, threshold),
                Reference::new(delta as f64, threshold),
            );
            for _ in 0..values.next_u64() % part {
                let v = values.next_value();
                b.record(v);
                rb.record(v);
            }
            s.merge(&b);
            r.merge(&rb);
            check_state(&s, &r)?;
            for _ in 0..=values.next_u64() % 3 {
                let v = values.next_value();
                s.record(v);
                r.record(v);
                let q = values.unit();
                let (got, want) = (s.quantile(q), r.quantile(q));
                prop_assert!(same(got, want), "q={}: {} vs {}", q, got, want);
                check_state(&s, &r)?;
            }
        }
    }
}

/// Whether the pair of prefix `cum` and weight `w` merges at count `n`,
/// by the merge test and, separately, by the limit formula itself.
fn merges_at(n: f64, delta: f64, cum: f64, w: f64) -> bool {
    let q_mid = (cum + w / 2.0) / n;
    let formula = w <= (4.0 * n * q_mid * (1.0 - q_mid) / delta).max(1.0);
    let test = MergeTest::new(n, delta).admits(cum, w);
    assert_eq!(test, formula, "n={n} delta={delta} cum={cum} w={w}");
    formula
}

#[test]
fn no_state_before_the_expiry_merges_the_pair() {
    // Random pairs `(cum, w)` at counts `n` up to 2^40, weights around the
    // limit and limits that are exact integers. After `l` more samples
    // land left of the pair and `r` right of it, in any order, the pair
    // sits at prefix `cum + l` and count `n + l + r`; the expiry keeps it
    // apart while `l < prefix − cum` and `r < suffix − (n − cum)`. Small
    // ranges are checked state by state; large ones at their corners, at
    // the limit's peak (`x` nearest half the count) and at random states.
    let mut rng = Values { state: 0x5eed, levels: 1, inf_per_mille: 0 };
    let mut tested = 0;
    for case in 0..4_000 {
        let delta = match case % 4 {
            0 => 10.0,
            1 => 200.0,
            _ => (10 + rng.next_u64() % 2_000) as f64,
        };
        let mut n = (2 + rng.next_u64() % (1u64 << (1 + rng.next_u64() % 40))) as f64;
        let (cum, w) = if case % 3 == 0 && n >= 4.0 * delta {
            // An exact integer limit: `x = n/2` with `n` a multiple of
            // `2δ` gives `L = n/δ`; weights at and just above it.
            n = (n / (2.0 * delta)).floor() * 2.0 * delta;
            let w = n / delta + 2.0 * (rng.next_u64() % 3) as f64;
            ((n - w) / 2.0, w)
        } else {
            let peak = n / delta;
            let w = (2 + rng.next_u64() % (2.0 * peak + 3.0).min(n - 1.0) as u64) as f64;
            ((rng.next_u64() % (n - w + 1.0) as u64) as f64, w)
        };
        if w < 2.0 || cum < 0.0 || cum + w > n {
            continue;
        }
        let expiry = MergeTest::new(n, delta).expiry(cum, w);
        if expiry.is_due(cum, n) {
            continue;
        }
        let x = cum + w / 2.0;
        assert!(w > 4.0 * x * (n - x) / (n * delta), "n={n} delta={delta} cum={cum} w={w}");
        let (l_end, r_end) = ((expiry.prefix - cum) as u64, (expiry.suffix - (n - cum)) as u64);
        let pick = |end: u64, rng: &mut Values| -> Vec<u64> {
            if end <= 48 {
                (0..end).collect()
            } else {
                let mut v: Vec<u64> = (0..6).map(|_| rng.next_u64() % end).collect();
                v.extend([0, 1, end - 2, end - 1]);
                v
            }
        };
        let (ls, rs) = (pick(l_end, &mut rng), pick(r_end, &mut rng));
        for &r in &rs {
            let mut ls = ls.clone();
            // The limit peaks where `x + l` is half the count.
            let peak = ((n + r as f64) - 2.0 * x).max(0.0) as u64;
            if peak < l_end {
                ls.push(peak);
            }
            for l in ls {
                let (n_at, cum_at) = (n + (l + r) as f64, cum + l as f64);
                assert!(!expiry.is_due(cum_at, n_at), "n={n} cum={cum} w={w}: due at l={l} r={r}");
                assert!(
                    !merges_at(n_at, delta, cum_at, w),
                    "n={n} delta={delta} cum={cum} w={w} {expiry:?}: merges after {l} left, {r} right"
                );
                tested += 1;
            }
        }
    }
    assert!(tested > 10_000, "only {tested} states checked");
}
