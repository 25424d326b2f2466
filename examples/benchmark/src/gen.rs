//! Seeded input generators. The program under test sees only what these
//! produce; the same `--seed` reproduces every input byte for byte.

/// xorshift64* — small, fast, and owned by the benchmark (no new
/// dependency, and no coupling to the program's own PRNG).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`: independent inputs (model, source,
    /// schedule) draw from different streams so adding one never shifts
    /// another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0x94d0_49bb_1331_11eb);
        // splitmix64 finaliser, so nearby seeds start far apart.
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(z | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Exponential with the given mean (inter-arrival gaps of a Poisson
    /// process of rate `1/mean`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// `len` values uniform in `[lo, hi)`.
pub fn uniform_vec(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range(lo, hi)).collect()
}

/// A layered velocity model on an `n³` grid, perturbed per point: the
/// depth trend every seismic example in the repo uses plus seeded
/// relative noise of amplitude `noise`.
pub fn velocity_model(rng: &mut Rng, n: usize, noise: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * n * n);
    for _ in 0..n * n {
        for k in 0..n {
            let base = 0.8 + 0.4 * (k as f64 / n as f64);
            out.push(base * (1.0 + rng.range(-noise, noise)));
        }
    }
    out
}

/// A Ricker-like wavelet of `steps` samples with a seeded amplitude and
/// a seeded shift of its peak.
pub fn wavelet(rng: &mut Rng, steps: usize) -> Vec<f64> {
    let amp = rng.range(0.7, 1.3);
    let shift = rng.range(0.25, 0.4);
    let f = 2.0 / steps as f64;
    (0..steps)
        .map(|t| {
            let arg = std::f64::consts::PI * f * (t as f64 - steps as f64 * shift);
            let a2 = arg * arg;
            amp * (1.0 - 2.0 * a2) * (-a2).exp()
        })
        .collect()
}

/// Poisson arrival times in seconds from 0, at `rate` per second, up to
/// `duration` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// The three DSL stencils of the compile workload — a 1-D 3-point, a 2-D
/// 5-point and a 3-D 7-point star (5, 17 and 53 adjoint nests, §3.3.4) —
/// with seeded coefficients baked into the source text. Distinct
/// coefficients give distinct kernel fingerprints, so a fresh draw is a
/// kernel no cache has seen.
pub struct StencilSource {
    pub name: &'static str,
    pub text: String,
    pub dims: Vec<usize>,
}

pub fn stencil_sources(rng: &mut Rng, n1: usize, n2: usize, n3: usize) -> Vec<StencilSource> {
    let coef = |rng: &mut Rng| format!("{:.6}", rng.range(0.2, 1.8));
    let c: Vec<String> = (0..16).map(|_| coef(rng)).collect();
    vec![
        StencilSource {
            name: "star1d",
            text: format!(
                "for i in 1 .. n-2 {{ r[i] = c[i]*({}*u[i-1] - {}*u[i] + {}*u[i+1]); }}",
                c[0], c[1], c[2]
            ),
            dims: vec![n1],
        },
        StencilSource {
            name: "star2d",
            text: format!(
                "for i in 1 .. n-2, j in 1 .. n-2 {{ r[i][j] = c[i][j]*({}*u[i-1][j] + {}*u[i+1][j] \
                 + {}*u[i][j-1] + {}*u[i][j+1] - {}*u[i][j]); }}",
                c[3], c[4], c[5], c[6], c[7]
            ),
            dims: vec![n2, n2],
        },
        StencilSource {
            name: "star3d",
            text: format!(
                "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 {{ r[i][j][k] = c[i][j][k]*(\
                 {}*u[i-1][j][k] + {}*u[i+1][j][k] + {}*u[i][j-1][k] + {}*u[i][j+1][k] \
                 + {}*u[i][j][k-1] + {}*u[i][j][k+1] - {}*u[i][j][k]); }}",
                c[8], c[9], c[10], c[11], c[12], c[13], c[14]
            ),
            dims: vec![n3, n3, n3],
        },
    ]
}

/// FNV-1a over the bit patterns of a slice — the digest the self-check
/// and the bitwise comparisons use.
pub fn digest(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in xs {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
