//! Request schedules: a pure function of the seed.
//!
//! The benchmark owns its sampler (splitmix64 + Box–Muller LogNormal) so
//! that the inputs depend on nothing but `--seed` and this file; the
//! program under test sees only the generated requests.
//!
//! Single-writer discipline, as the service oracle requires: session `s`
//! writes only key `s`, so only the first `keys` sessions ever write and
//! every value read can be attributed to the one session that wrote it.

use std::f64::consts::PI;

/// splitmix64 — one multiply-xorshift chain per draw, seedable from any
/// 64-bit value including 0.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`). The modulo bias at these
    /// bounds (≤ 2^15 against 2^64) is below anything measurable here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// LogNormal parameterised by its mean.
#[derive(Debug, Clone, Copy)]
struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    fn with_mean(mean: f64, sigma: f64) -> LogNormal {
        LogNormal {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        let z = (-2.0 * rng.next_f64().ln()).sqrt() * (2.0 * PI * rng.next_f64()).cos();
        (self.mu + self.sigma * z).exp()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Del,
}

/// One request of a schedule. Values and request ids are assigned by the
/// driver at issue time (both count up per session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// When the request is due, microseconds from the start of the part
    /// of the run it belongs to.
    pub due_us: u64,
    pub session: u64,
    pub key: u16,
    pub kind: Kind,
}

/// The shape of a workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub sessions: u64,
    pub keys: u16,
    pub write_frac: f64,
}

/// Share of writes that are deletes.
const DELETE_FRAC: f64 = 0.05;

fn draw(rng: &mut SplitMix64, traffic: &Traffic) -> Request {
    // A write comes from a writer session and goes to its own key; a
    // read may come from anyone and go anywhere.
    let (session, key, kind) = if rng.next_f64() < traffic.write_frac {
        let session = rng.below(u64::from(traffic.keys));
        let kind = if rng.next_f64() < DELETE_FRAC {
            Kind::Del
        } else {
            Kind::Put
        };
        (session, session as u16, kind)
    } else {
        let session = rng.below(traffic.sessions);
        (
            session,
            rng.below(u64::from(traffic.keys)) as u16,
            Kind::Get,
        )
    };
    Request {
        due_us: 0,
        session,
        key,
        kind,
    }
}

/// LogNormal shape of the gaps between arrival events (heavy tail:
/// quiet stretches, then pile-ups).
const GAP_SIGMA: f64 = 1.5;
/// Mean and LogNormal shape of the number of requests landing together.
const BURST_MEAN: f64 = 4.0;
const BURST_SIGMA: f64 = 1.0;

/// An open-loop schedule of exactly `rate × span` requests over
/// `span_us`: LogNormal gaps between arrival events, a LogNormal number
/// of requests per event. The drawn timeline is rescaled to end exactly
/// at `span_us`, so every seed offers the same load and only the
/// arrangement differs — without this the realised rate of a 10 s
/// heavy-tailed schedule swings by ±5 % from seed to seed and every
/// per-op metric swings with it.
pub fn open(seed: u64, traffic: &Traffic, rate_ops_s: f64, span_us: u64) -> Vec<Request> {
    let total = (rate_ops_s * span_us as f64 / 1e6).round() as usize;
    let mut rng = SplitMix64::new(seed);
    let gaps = LogNormal::with_mean(1e6 * BURST_MEAN / rate_ops_s, GAP_SIGMA);
    let bursts = LogNormal::with_mean(BURST_MEAN, BURST_SIGMA);
    let mut out: Vec<Request> = Vec::with_capacity(total);
    let mut times: Vec<f64> = Vec::with_capacity(total);
    let mut t = 0.0;
    while out.len() < total {
        t += gaps.sample(&mut rng);
        let burst = (bursts.sample(&mut rng).round() as usize).clamp(1, total - out.len());
        for _ in 0..burst {
            out.push(draw(&mut rng, traffic));
            times.push(t);
        }
    }
    // Leave one mean gap after the last event, as the process would.
    let scale = span_us as f64 / (t + 1e6 * BURST_MEAN / rate_ops_s);
    for (request, at) in out.iter_mut().zip(times) {
        request.due_us = (at * scale) as u64;
    }
    out
}

/// A fingerprint of a schedule, recorded with every result so two runs
/// can be shown to have had the same inputs.
pub fn fingerprint(requests: impl IntoIterator<Item = Request>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in requests {
        for word in [r.due_us, r.session, u64::from(r.key), r.kind as u64] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: Traffic = Traffic {
        sessions: 20_000,
        keys: 256,
        write_frac: 0.1,
    };

    #[test]
    fn open_schedule_is_a_pure_function_of_the_seed() {
        let a = open(7, &STEADY, 2_000.0, 5_000_000);
        let b = open(7, &STEADY, 2_000.0, 5_000_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(
            fingerprint(a.iter().copied()),
            fingerprint(b.iter().copied())
        );
        let c = open(8, &STEADY, 2_000.0, 5_000_000);
        assert_ne!(a, c, "another seed, another schedule");
        assert_ne!(
            fingerprint(a.iter().copied()),
            fingerprint(c.iter().copied())
        );
    }

    #[test]
    fn open_schedule_offers_exactly_the_stated_load() {
        for seed in 0..5 {
            let s = open(seed, &STEADY, 2_000.0, 5_000_000);
            assert_eq!(s.len(), 10_000);
            assert!(
                s.windows(2).all(|w| w[0].due_us <= w[1].due_us),
                "sorted by due time"
            );
            assert!(s.last().unwrap().due_us < 5_000_000);
            assert!(s.last().unwrap().due_us > 4_900_000, "spans the window");
            let writes = s.iter().filter(|r| r.kind != Kind::Get).count();
            assert!((800..1200).contains(&writes), "{writes} writes of 10000");
        }
    }

    #[test]
    fn writers_write_only_their_own_key() {
        let ingest = Traffic {
            sessions: 256,
            keys: 256,
            write_frac: 0.9,
        };
        let interactive = open(3, &STEADY, 2_000.0, 2_000_000);
        let write_heavy = open(3, &ingest, 8_000.0, 1_000_000);
        for r in interactive.iter().chain(&write_heavy) {
            if r.kind != Kind::Get {
                assert_eq!(u64::from(r.key), r.session);
            }
            assert!(r.key < 256);
        }
        let writes = write_heavy.iter().filter(|r| r.kind != Kind::Get).count();
        assert!((7_000..7_400).contains(&writes), "{writes} writes of 8000");
    }
}
