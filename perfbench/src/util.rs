//! Small shared helpers: the seeded generator, order statistics, the
//! process's peak resident set, and the metric table printed at the end.

use std::mem::MaybeUninit;
use std::time::Duration;

/// Xorshift64* with a splitmix64 seed scramble, so neighbouring seeds give
/// unrelated streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// A generator for one named sub-stream of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A word of `len` letters drawn uniformly from `letters`.
    pub fn word(&mut self, len: usize, letters: &[u8]) -> String {
        (0..len)
            .map(|_| letters[self.below(letters.len() as u64) as usize] as char)
            .collect()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.5)
}

/// Number of the `n` samples above their nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((n as f64 * q).ceil() as usize).min(n)
}

/// An empty record buffer for `max_rate` records per second over `len`,
/// its pages already written. It is made before the resident-set baseline
/// is taken, so filling it while timing neither reallocates nor adds to
/// `peak_rss_mb`, whatever the throughput.
pub fn record_buffer<T>(len: Duration, max_rate: f64) -> Vec<T> {
    let mut buf = Vec::with_capacity((len.as_secs_f64() * max_rate) as usize + 1024);
    for slot in buf.spare_capacity_mut() {
        *slot = MaybeUninit::zeroed();
    }
    std::hint::black_box(&mut buf);
    buf
}

/// Peak resident set of this process since start or since the last
/// `reset_peak_rss`, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets the peak resident set to the current one and returns it, in MB.
pub fn reset_peak_rss() -> std::io::Result<f64> {
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(status_mb("VmRSS:"))
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is the 8th.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// An ordered table of named metrics, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; non-finite values
    /// (a layer with no samples) render as `null`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
