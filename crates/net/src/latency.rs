//! Link latency models for network construction.
//!
//! A [`LatencyModel`] assigns a one-way propagation latency to each
//! *unordered* peer pair; [`crate::builder::SimBuilder`] bakes the
//! assignment into each pipe's [`crate::PipeConfig`] at build time, so
//! the simulator hot path never evaluates a model. Both models are
//! deterministic functions of their inputs: the same model over the
//! same pair always yields the same latency, on every platform —
//! [`LatencyModel::Geo`] avoids transcendental functions for exactly
//! that reason (see [`GeoPoint::great_circle_km`]).

use crate::peer::PeerId;
use crate::time::SimTime;

/// A point on the globe, for [`LatencyModel::Geo`] placements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, −90 … 90.
    pub lat_deg: f64,
    /// Longitude in degrees, −180 … 180.
    pub lon_deg: f64,
}

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

impl GeoPoint {
    /// Creates a placement from latitude/longitude degrees.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        GeoPoint { lat_deg, lon_deg }
    }

    /// Great-circle distance to `other` in kilometres.
    ///
    /// Computed via the chord length between the two points' unit
    /// vectors: `d = R · 2·asin(chord/2)`. Uses only multiplications,
    /// square roots and a polynomial `asin`/`sin`/`cos` — no libm
    /// transcendentals — so results are bit-identical across platforms
    /// and the model can participate in golden traces.
    pub fn great_circle_km(&self, other: &GeoPoint) -> f64 {
        let (ax, ay, az) = self.unit_vector();
        let (bx, by, bz) = other.unit_vector();
        let dx = ax - bx;
        let dy = ay - by;
        let dz = az - bz;
        let chord = (dx * dx + dy * dy + dz * dz).sqrt();
        // chord = 2 sin(θ/2) ⇒ θ = 2 asin(chord/2); chord/2 ∈ [0, 1].
        EARTH_RADIUS_KM * 2.0 * asin_poly((chord / 2.0).clamp(0.0, 1.0))
    }

    fn unit_vector(&self) -> (f64, f64, f64) {
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        let (sin_lat, cos_lat) = sin_cos_poly(lat);
        let (sin_lon, cos_lon) = sin_cos_poly(lon);
        (cos_lat * cos_lon, cos_lat * sin_lon, sin_lat)
    }

    /// Scatters `n` placements deterministically over the inhabited
    /// latitudes (−55° … 70°) from `seed` — the stock way experiments
    /// get a world-spanning population without a dataset.
    pub fn scatter(seed: u64, n: usize) -> Vec<GeoPoint> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let a = splitmix64(&mut state);
                let b = splitmix64(&mut state);
                GeoPoint {
                    lat_deg: -55.0 + unit_f64(a) * 125.0,
                    lon_deg: -180.0 + unit_f64(b) * 360.0,
                }
            })
            .collect()
    }
}

/// Polynomial `sin`/`cos` via argument reduction to `[-π, π]` and a
/// degree-13/12 Taylor tail — ~1e-10 absolute error, fully
/// deterministic (no platform libm).
fn sin_cos_poly(x: f64) -> (f64, f64) {
    const TWO_PI: f64 = std::f64::consts::TAU;
    // Inputs are bounded (|x| ≤ π for radians of ±180°), but reduce
    // anyway so the helper is safe for any placement arithmetic.
    let mut r = x % TWO_PI;
    if r > std::f64::consts::PI {
        r -= TWO_PI;
    } else if r < -std::f64::consts::PI {
        r += TWO_PI;
    }
    let x2 = r * r;
    let sin = r
        * (1.0
            + x2 * (-1.0 / 6.0
                + x2 * (1.0 / 120.0
                    + x2 * (-1.0 / 5040.0
                        + x2 * (1.0 / 362_880.0
                            + x2 * (-1.0 / 39_916_800.0 + x2 * (1.0 / 6_227_020_800.0)))))));
    let cos = 1.0
        + x2 * (-1.0 / 2.0
            + x2 * (1.0 / 24.0
                + x2 * (-1.0 / 720.0
                    + x2 * (1.0 / 40_320.0
                        + x2 * (-1.0 / 3_628_800.0 + x2 * (1.0 / 479_001_600.0))))));
    (sin, cos)
}

/// Deterministic `asin` on `[0, 1]` via the identity
/// `asin(x) = atan2(x, sqrt(1-x²))` reduced to a Newton refinement of
/// `sin(y) = x` seeded with a small-angle estimate. Max error ≲ 1e-9.
fn asin_poly(x: f64) -> f64 {
    if x >= 1.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    // Seed: for x ≤ 0.7 the Taylor series converges fast; above that,
    // use asin(x) = π/2 − 2·asin(sqrt((1−x)/2)) to fold into range.
    if x > 0.7 {
        return std::f64::consts::FRAC_PI_2 - 2.0 * asin_poly(((1.0 - x) / 2.0).sqrt());
    }
    let x2 = x * x;
    let mut y = x
        * (1.0
            + x2 * (1.0 / 6.0
                + x2 * (3.0 / 40.0
                    + x2 * (15.0 / 336.0 + x2 * (105.0 / 3456.0 + x2 * (945.0 / 42_240.0))))));
    // Two Newton steps on f(y) = sin(y) − x.
    for _ in 0..2 {
        let (s, c) = sin_cos_poly(y);
        y -= (s - x) / c;
    }
    y
}

/// One step of the splitmix64 sequence (same mixer as the rand shim).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a `u64` to `[0, 1)` using the top 53 bits.
fn unit_f64(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

/// Assigns one-way link latency per unordered peer pair.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every link gets the same latency.
    Fixed(SimTime),
    /// Latency proportional to great-circle distance between each
    /// peer's placement: `floor + distance / speed`. Peer `PeerId(i)`
    /// uses `points[i % points.len()]`.
    Geo {
        /// One placement per peer (indexed by `PeerId.0`, wrapping).
        points: Vec<GeoPoint>,
        /// Signal propagation speed in km/s; fibre is ≈ 200 000 km/s.
        speed_km_per_s: f64,
        /// Per-link floor added to the propagation delay (serialization,
        /// switching).
        floor: SimTime,
    },
}

impl LatencyModel {
    /// A geo model over `n` placements scattered from `seed`, with
    /// fibre-like propagation speed and a 200 µs floor.
    pub fn geo_scattered(seed: u64, n: usize) -> Self {
        LatencyModel::Geo {
            points: GeoPoint::scatter(seed, n),
            speed_km_per_s: 200_000.0,
            floor: SimTime::from_micros(200),
        }
    }

    /// One-way latency of the link between `a` and `b`. Symmetric:
    /// `link(a, b) == link(b, a)`.
    pub fn link(&self, a: PeerId, b: PeerId) -> SimTime {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Geo { points, speed_km_per_s, floor } => {
                if points.is_empty() {
                    return *floor;
                }
                let pa = points[(a.0 % points.len() as u64) as usize];
                let pb = points[(b.0 % points.len() as u64) as usize];
                let km = pa.great_circle_km(&pb);
                *floor + SimTime((km / speed_km_per_s * 1e9) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant_and_symmetric() {
        let m = LatencyModel::Fixed(SimTime::from_millis(3));
        assert_eq!(m.link(PeerId(1), PeerId(9)), SimTime::from_millis(3));
        assert_eq!(m.link(PeerId(9), PeerId(1)), m.link(PeerId(1), PeerId(9)));
    }

    #[test]
    fn great_circle_known_distances() {
        // London ↔ New York ≈ 5570 km.
        let london = GeoPoint::new(51.5074, -0.1278);
        let ny = GeoPoint::new(40.7128, -74.0060);
        let d = london.great_circle_km(&ny);
        assert!((d - 5570.0).abs() < 30.0, "London-NY: {d} km");
        // Antipodal-ish sanity: any distance ≤ half circumference.
        assert!(d <= EARTH_RADIUS_KM * std::f64::consts::PI);
        // Zero distance to self.
        assert!(london.great_circle_km(&london) < 1e-6);
    }

    #[test]
    fn geo_latency_scales_with_distance() {
        let points =
            vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 1.0), GeoPoint::new(0.0, 90.0)];
        let m = LatencyModel::Geo {
            points,
            speed_km_per_s: 200_000.0,
            floor: SimTime::from_micros(200),
        };
        let near = m.link(PeerId(0), PeerId(1));
        let far = m.link(PeerId(0), PeerId(2));
        assert!(far > near, "far {far} vs near {near}");
        assert!(near >= SimTime::from_micros(200), "floor applies");
        // 90° of longitude on the equator ≈ 10 000 km ⇒ ≈ 50 ms at
        // 200 000 km/s.
        assert!(far >= SimTime::from_millis(45) && far <= SimTime::from_millis(56), "{far}");
        assert_eq!(m.link(PeerId(2), PeerId(0)), far);
    }

    #[test]
    fn scatter_is_deterministic_and_bounded() {
        let a = GeoPoint::scatter(7, 100);
        let b = GeoPoint::scatter(7, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| (-55.0..=70.0).contains(&p.lat_deg)));
        assert!(a.iter().all(|p| (-180.0..=180.0).contains(&p.lon_deg)));
        assert_ne!(GeoPoint::scatter(8, 100), a);
    }
}
