//! Pure statistics of the benchmark: medians, the tail-percentile rule,
//! request accounting per rate step, and the SLO rate selection. Kept
//! free of I/O so the rules the report depends on are unit-tested.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `pct` (0–100] of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, pct)
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: &[f64] = &[99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `min_beyond` of `n` samples beyond it, or `None` when even the median
/// leaves fewer.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// Latency of one open-loop request measured from when it was *due*,
/// not from when the generator got round to sending it, so a stalled
/// generator or daemon charges its wait to every later request.
pub fn latency_from_due_ms(due_s: f64, answered_s: f64) -> f64 {
    (answered_s - due_s) * 1e3
}

/// How late the generator sent a request relative to its schedule.
pub fn send_lag_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Answered and every check on the answer passed; latency in ms.
    Ok(f64),
    /// Answered with a typed rejection (overload, deadline, ...).
    Rejected,
    /// Answered, but the answer failed a correctness check.
    CheckFailed,
    /// Never answered before the run gave up waiting.
    Unanswered,
}

/// Per-rate-step accounting of the open-loop generator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTally {
    /// Offered rate of the step, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered (including rejections and failed checks).
    pub answered: usize,
    /// Requests rejected, unanswered or failing a check.
    pub failed: usize,
    /// Latencies (ms, from due time) of the successful requests.
    pub latencies_ms: Vec<f64>,
    /// Requests outstanding once the first quarter of the step's
    /// requests had been sent (the step starts on a drained queue).
    pub backlog_start: usize,
    /// Requests outstanding when the step's last request was sent.
    pub backlog_end: usize,
}

impl StepTally {
    /// Tally the fates of one step's requests.
    pub fn from_fates(rate: f64, fates: &[Fate], backlog_start: usize, backlog_end: usize) -> Self {
        let mut t = StepTally {
            rate,
            sent: fates.len(),
            backlog_start,
            backlog_end,
            ..StepTally::default()
        };
        for fate in fates {
            match *fate {
                Fate::Ok(ms) => {
                    t.answered += 1;
                    t.latencies_ms.push(ms);
                }
                Fate::Rejected | Fate::CheckFailed => {
                    t.answered += 1;
                    t.failed += 1;
                }
                Fate::Unanswered => t.failed += 1,
            }
        }
        t
    }

    /// Failed requests over requests sent (0 when nothing was sent).
    pub fn failed_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }

    /// Share of sent requests answered successfully within `limit_ms`.
    /// A failed request counts as missing the limit.
    pub fn within_limit_share(&self, limit_ms: f64) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        let ok = self.latencies_ms.iter().filter(|&&l| l <= limit_ms).count();
        ok as f64 / self.sent as f64
    }

    /// Whether the backlog grew over the rest of the step by more than a
    /// steady queue's fluctuation: by Little's law, requests answered
    /// within `limit_ms` at this rate leave at most `rate × limit` in
    /// flight (and at least five, for low rates).
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        let slack = (self.rate * limit_ms / 1e3).max(5.0);
        self.backlog_end as f64 > self.backlog_start as f64 + slack
    }

    /// Whether the step meets the SLO: at least `share` of its requests
    /// answered within `limit_ms`, and no growing backlog.
    pub fn meets_slo(&self, limit_ms: f64, share: f64) -> bool {
        self.sent > 0 && self.within_limit_share(limit_ms) >= share && !self.backlog_grew(limit_ms)
    }
}

/// The highest offered rate among `steps` that meets the SLO, or `None`
/// when none does. Steps need not be sorted.
pub fn slo_rate(steps: &[StepTally], limit_ms: f64, share: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.meets_slo(limit_ms, share))
        .map(|s| s.rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(999, 10), Some(97.5));
        assert_eq!(tail_percentile(400, 10), Some(97.5));
        assert_eq!(tail_percentile(200, 10), Some(95.0));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(25, 10), Some(60.0));
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(19, 10), None);
        for n in [11, 20, 57, 130, 480, 2000] {
            if let Some(p) = tail_percentile(n, 10) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn latency_counts_from_due_time() {
        // Due at 1.0 s, sent 50 ms late at 1.05 s, answered at 1.2 s:
        // the user waited 200 ms, not the 150 ms a send-time clock shows.
        assert!((latency_from_due_ms(1.0, 1.2) - 200.0).abs() < 1e-9);
        assert!((send_lag_ms(1.0, 1.05) - 50.0).abs() < 1e-9);
        assert_eq!(send_lag_ms(1.0, 0.999), 0.0);
    }

    #[test]
    fn failed_share_counts_rejected_unanswered_and_check_failures() {
        let fates = [
            Fate::Ok(3.0),
            Fate::Ok(4.0),
            Fate::Rejected,
            Fate::Unanswered,
            Fate::CheckFailed,
            Fate::Ok(5.0),
            Fate::Ok(6.0),
            Fate::Ok(7.0),
        ];
        let t = StepTally::from_fates(100.0, &fates, 0, 0);
        assert_eq!(t.sent, 8);
        assert_eq!(t.answered, 7);
        assert_eq!(t.failed, 3);
        assert!((t.failed_share() - 3.0 / 8.0).abs() < 1e-12);
        // Failed requests miss any latency limit.
        assert!((t.within_limit_share(1e9) - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(StepTally::default().failed_share(), 0.0);
    }

    fn step(rate: f64, ok_ms: &[f64], failed: usize, backlog: (usize, usize)) -> StepTally {
        let mut fates: Vec<Fate> = ok_ms.iter().map(|&l| Fate::Ok(l)).collect();
        fates.extend(std::iter::repeat_n(Fate::Unanswered, failed));
        StepTally::from_fates(rate, &fates, backlog.0, backlog.1)
    }

    #[test]
    fn slo_rate_picks_highest_passing_step() {
        let fast = vec![5.0; 200];
        let mut slow = vec![5.0; 190];
        slow.extend([80.0; 10]);
        let steps = [
            step(50.0, &fast, 0, (0, 1)),
            step(100.0, &fast, 0, (1, 3)),
            // 5% over the limit: misses the 99% SLO.
            step(150.0, &slow, 0, (3, 4)),
            // Fast answers but a growing backlog: saturated.
            step(200.0, &fast, 0, (4, 60)),
            // One unanswered request in 201 still leaves > 99%.
            step(120.0, &fast, 1, (0, 0)),
        ];
        assert_eq!(slo_rate(&steps, 50.0, 0.99), Some(120.0));
        assert!(!steps[3].meets_slo(50.0, 0.99));
        // 7 in flight at 190/s is what 37 ms answers leave: not growth.
        assert!(!step(190.0, &fast, 0, (0, 7)).backlog_grew(50.0));
        // Three failures in 203 break the 99% share.
        assert!(!step(120.0, &fast, 3, (0, 0)).meets_slo(50.0, 0.99));
        assert_eq!(slo_rate(&steps[2..4], 50.0, 0.99), None);
    }
}
