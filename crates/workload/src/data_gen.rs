//! Seeded data generators for node databases.

use codb_relational::{tup, Tuple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Distribution of generated integer values.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum DataDist {
    /// Uniform over `[0, domain)`.
    Uniform {
        /// Exclusive upper bound.
        domain: u64,
    },
    /// Zipf-like over `[0, domain)` with the given exponent ×100 (e.g.
    /// `exponent_x100: 100` is the classic `1/rank` distribution). Skewed
    /// data increases duplicate rates across nodes, stressing the
    /// duplicate-suppression path.
    Zipf {
        /// Exclusive upper bound.
        domain: u64,
        /// Exponent scaled by 100 (integer so the spec stays `Eq`/hashable).
        exponent_x100: u32,
    },
}

impl DataDist {
    /// Draws one value.
    pub fn sample(&self, rng: &mut SmallRng) -> i64 {
        match *self {
            DataDist::Uniform { domain } => rng.gen_range(0..domain.max(1)) as i64,
            DataDist::Zipf { domain, exponent_x100 } => {
                zipf_sample(rng, domain.max(1), exponent_x100 as f64 / 100.0)
            }
        }
    }
}

/// Inverse-CDF Zipf sampler over ranks `1..=n`, returned 0-based.
/// O(log n) per draw via binary search over the precomputed-free harmonic
/// partial sums approximation (exact via iteration for small n, bounded
/// approximation otherwise).
fn zipf_sample(rng: &mut SmallRng, n: u64, s: f64) -> i64 {
    // For the domain sizes the experiments use (≤ 1e6) the rejection
    // sampler of Devroye is simpler and fast enough.
    // See Devroye, "Non-Uniform Random Variate Generation", X.6.1.
    let n_f = n as f64;
    loop {
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        // Inverse of the bounding envelope.
        let x = if (s - 1.0).abs() < 1e-9 {
            n_f.powf(u)
        } else {
            let t = (n_f.powf(1.0 - s) - 1.0) * u + 1.0;
            t.powf(1.0 / (1.0 - s))
        };
        let k = x.floor().max(1.0).min(n_f);
        // Acceptance test.
        let ratio = (k / x).powf(s);
        if v * ratio <= 1.0 {
            return k as i64 - 1;
        }
    }
}

/// Generates `count` binary tuples `(key, value)` for one node. Keys are
/// drawn from the distribution; values uniform over the same domain.
/// Duplicate tuples may be drawn; set semantics dedups them on insert, so
/// callers that need an exact count should use [`generate_distinct`].
pub fn generate(seed: u64, count: usize, dist: DataDist) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let domain = match dist {
        DataDist::Uniform { domain } | DataDist::Zipf { domain, .. } => domain.max(1),
    };
    (0..count)
        .map(|_| {
            let k = dist.sample(&mut rng);
            let v = rng.gen_range(0..domain) as i64;
            tup![k, v]
        })
        .collect()
}

/// Like [`generate`] but guarantees `count` *distinct* tuples (retries
/// duplicates; the caller must keep `count` well below `domain²`).
pub fn generate_distinct(seed: u64, count: usize, dist: DataDist) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let domain = match dist {
        DataDist::Uniform { domain } | DataDist::Zipf { domain, .. } => domain.max(1),
    };
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count {
        guard += 1;
        assert!(
            guard < count.saturating_mul(100) + 1000,
            "domain too small for {count} distinct tuples"
        );
        let k = dist.sample(&mut rng);
        let v = rng.gen_range(0..domain) as i64;
        if seen.insert((k, v)) {
            out.push(tup![k, v]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let d = DataDist::Uniform { domain: 100 };
        assert_eq!(generate(1, 50, d), generate(1, 50, d));
        assert_ne!(generate(1, 50, d), generate(2, 50, d));
    }

    #[test]
    fn distinct_yields_exact_count() {
        let d = DataDist::Uniform { domain: 50 };
        let ts = generate_distinct(3, 200, d);
        assert_eq!(ts.len(), 200);
        let set: std::collections::HashSet<_> = ts.iter().collect();
        assert_eq!(set.len(), 200);
    }

    #[test]
    fn uniform_stays_in_domain() {
        let d = DataDist::Uniform { domain: 10 };
        for t in generate(9, 500, d) {
            match t[0] {
                codb_relational::Value::Int(k) => assert!((0..10).contains(&k)),
                _ => panic!("ints expected"),
            }
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let d = DataDist::Zipf { domain: 1000, exponent_x100: 110 };
        let ts = generate(7, 3000, d);
        let low =
            ts.iter().filter(|t| matches!(t[0], codb_relational::Value::Int(k) if k < 10)).count();
        // With s=1.1 over 1000 values, the top-10 ranks carry a large share.
        assert!(low > 1000, "zipf skew expected, got {low}/3000 low keys");
    }

    #[test]
    #[should_panic(expected = "domain too small")]
    fn distinct_panics_when_domain_exhausted() {
        let d = DataDist::Uniform { domain: 2 };
        let _ = generate_distinct(1, 100, d); // only 4 distinct pairs exist
    }
}
