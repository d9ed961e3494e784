//! Percentiles, windows and medians over client-observed samples.

use crate::inputs::Kind;

/// Fewest samples that must lie beyond a percentile for it to be
/// reported at all.
pub const MIN_BEYOND: usize = 10;

/// One client call: what it was, on which connection, and when it
/// started and ended (nanoseconds since the phase began). These are
/// both the latency samples and the traced run's client spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Operation kind.
    pub kind: Kind,
    /// Connection index.
    pub conn: u8,
    /// Position in the connection's input list.
    pub seq: u32,
    /// Call time.
    pub start_ns: u64,
    /// Reply (and, for reads, verification) time.
    pub end_ns: u64,
}

impl Sample {
    /// Client-observed latency.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nearest-rank `q`-quantile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of nothing");
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Share of windows allowed to do worse than a windowed statistic: a
/// rate is the one that 9 windows in 10 reach or exceed, a latency the
/// one that 9 windows in 10 stay at or under.
///
/// On a shared host the CPU runs in at least two speed regimes, which
/// last from one to several minutes: a steady slow one, and a faster
/// one in which windows swing between about the slow level and 1.7
/// times it. A run's median window follows the regime; the slow-decile
/// window moves far less, because both regimes have windows at about the
/// slow level. In ten 30 s `dedup-ingest` runs, the median window's
/// ops/s had a quartile spread of 0.19 across runs, the slow-decile
/// window's 0.10.
pub const SLOW_SHARE: f64 = 0.1;

/// A statistic with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: u64,
    /// Windows whose values were reduced to the one that 9 in 10 of them
    /// meet (see [`SLOW_SHARE`]); 0 when the value is pooled over the
    /// whole phase.
    pub windows: usize,
}

/// A phase's samples grouped into windows, so that a run reports what it
/// sustained window after window rather than one pooled value.
#[derive(Debug, Clone)]
pub struct Windows {
    /// Duration of each window.
    pub len_ns: Vec<u64>,
    /// Samples by window.
    pub by_window: Vec<Vec<Sample>>,
}

impl Windows {
    /// Windows of `len_ns` by reply time over a phase that lasted
    /// `elapsed_ns`; replies after the last whole window are left out
    /// (one shorter window when the phase was shorter than `len_ns`).
    pub fn by_time(samples: &[Sample], elapsed_ns: u64, len_ns: u64) -> Windows {
        let count = (elapsed_ns / len_ns).max(1) as usize;
        let len_ns = len_ns.min(elapsed_ns.max(1));
        let mut by_window = vec![Vec::new(); count];
        for s in samples {
            if let Some(w) = by_window.get_mut((s.end_ns / len_ns) as usize) {
                w.push(*s);
            }
        }
        Windows {
            len_ns: vec![len_ns; count],
            by_window,
        }
    }

    /// Windows of `n` consecutive samples (a last, shorter one included),
    /// each as long as from its first call to its last reply.
    pub fn by_count(samples: &[Sample], n: usize) -> Windows {
        let by_window: Vec<Vec<Sample>> = samples.chunks(n).map(<[Sample]>::to_vec).collect();
        let len_ns = by_window
            .iter()
            .map(|w| w[w.len() - 1].end_ns - w[0].start_ns)
            .collect();
        Windows { len_ns, by_window }
    }

    /// Completed operations per second in each window.
    pub fn rates(&self) -> Vec<f64> {
        self.by_window
            .iter()
            .zip(&self.len_ns)
            .map(|(w, len)| w.len() as f64 * 1e9 / *len as f64)
            .collect()
    }

    /// Completed operations per second that 9 windows in 10 reach or
    /// exceed.
    pub fn ops_per_s(&self) -> Option<Stat> {
        let rates = self.rates();
        (!rates.is_empty()).then(|| Stat {
            value: quantile(&rates, SLOW_SHARE),
            samples: self.by_window.iter().map(|w| w.len() as u64).sum(),
            windows: rates.len(),
        })
    }

    /// The `q`-quantile latency of `kind` in microseconds: the value that
    /// 9 in 10 of the per-window quantiles stay at or under, over the
    /// windows that hold enough samples
    /// of `kind` for one, when those are at least two and at least half of
    /// the windows holding any; else the quantile pooled over all
    /// windows; else `None`.
    pub fn latency_us(&self, kind: Kind, q: f64) -> Option<Stat> {
        let holding: Vec<Vec<u64>> = self
            .by_window
            .iter()
            .map(|w| sorted_ns(w.iter(), kind))
            .filter(|w| !w.is_empty())
            .collect();
        let supported: Vec<(f64, u64)> = holding
            .iter()
            .filter_map(|w| percentile(w, q).map(|ns| (ns as f64 / 1e3, w.len() as u64)))
            .collect();
        if supported.len() >= 2 && supported.len() * 2 >= holding.len() {
            let values: Vec<f64> = supported.iter().map(|v| v.0).collect();
            return Some(Stat {
                value: quantile(&values, 1.0 - SLOW_SHARE),
                samples: supported.iter().map(|v| v.1).sum(),
                windows: values.len(),
            });
        }
        pooled_latency_us(self.by_window.iter().flatten(), kind, q)
    }
}

/// The `q`-quantile latency of `kind` over all of `samples`, in
/// microseconds.
fn pooled_latency_us<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    kind: Kind,
    q: f64,
) -> Option<Stat> {
    let sorted = sorted_ns(samples, kind);
    percentile(&sorted, q).map(|ns| Stat {
        value: ns as f64 / 1e3,
        samples: sorted.len() as u64,
        windows: 0,
    })
}

fn sorted_ns<'a>(samples: impl Iterator<Item = &'a Sample>, kind: Kind) -> Vec<u64> {
    let mut v: Vec<u64> = samples.filter(|s| s.kind == kind).map(Sample::ns).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&[4.0, 2.0], 0.25), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    fn sample(kind: Kind, i: u64) -> Sample {
        Sample {
            kind,
            conn: 0,
            seq: i as u32,
            start_ns: i * 1_000_000,
            end_ns: i * 1_000_000 + 500 + i % 7,
        }
    }

    #[test]
    fn windows_by_time_drop_the_tail_and_fall_back_to_pooled() {
        // 3.5 s of one op per millisecond, alternating writes and reads:
        // three whole windows.
        let samples: Vec<Sample> = (0..3500u64)
            .map(|i| sample(if i % 2 == 0 { Kind::Write } else { Kind::Read }, i))
            .collect();
        let w = Windows::by_time(&samples, 3_500_000_000, 1_000_000_000);
        assert_eq!(w.by_window.len(), 3);
        let ops = w.ops_per_s().expect("rate");
        assert_eq!((ops.value, ops.samples, ops.windows), (1000.0, 3000, 3));
        // 500 reads a window support a per-window p50 but not a p99;
        // pooled, 1500 reads support the p99.
        let p50 = w.latency_us(Kind::Read, 0.5).expect("p50");
        assert_eq!((p50.samples, p50.windows), (1500, 3));
        let p99 = w.latency_us(Kind::Read, 0.99).expect("pooled p99");
        assert_eq!((p99.samples, p99.windows), (1500, 0));
        assert!(w.latency_us(Kind::Delete, 0.5).is_none());
    }

    #[test]
    fn windows_skip_those_without_enough_of_a_kind() {
        // Windows of 1000: the first holds no deletes, the second and
        // third 300 each, the last (shorter) one 5.
        let samples: Vec<Sample> = (0..3010u64)
            .map(|i| {
                let delete = i >= 1000 && (i % 1000 < 300 || i >= 3000) && i < 3005;
                sample(if delete { Kind::Delete } else { Kind::Write }, i)
            })
            .collect();
        let w = Windows::by_count(&samples, 1000);
        assert_eq!(w.by_window.len(), 4);
        assert_eq!(w.len_ns[3], 9_000_000 + 500 + 3009 % 7);
        let d = w.latency_us(Kind::Delete, 0.5).expect("delete p50");
        assert_eq!((d.samples, d.windows), (600, 2));
    }
}
