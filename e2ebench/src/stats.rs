//! The benchmark's accounting: open-loop request outcomes, the percentile
//! rule, rung verdicts (latency limit, failures, backlog growth), and Fp of
//! served partitions against corpus truth.

use weber_eval::fp_measure;
use weber_graph::Partition;

/// Samples a quoted tail percentile must leave beyond it.
pub const BEYOND: usize = 10;

/// One request of an open-loop run. Times are µs since the run's origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// When the schedule said to send it.
    pub due_us: u64,
    /// When it was written; `None` if the run stopped before its turn.
    pub sent_us: Option<u64>,
    /// When its reply arrived; `None` if still unanswered at drain.
    pub done_us: Option<u64>,
    /// The reply carried `"ok":true`.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, so a stall also charges every request
    /// that waited behind it, including the wait before it could be sent.
    /// `None` for requests that failed or were never answered.
    pub fn latency_us(&self) -> Option<u64> {
        match (self.ok, self.done_us) {
            (true, Some(done)) => Some(done.saturating_sub(self.due_us)),
            _ => None,
        }
    }

    /// How late the generator wrote the request.
    pub fn lag_us(&self) -> Option<u64> {
        self.sent_us.map(|s| s.saturating_sub(self.due_us))
    }

    /// Attempted and then failed: an error reply or no reply at all.
    pub fn failed(&self) -> bool {
        self.sent_us.is_some() && !(self.ok && self.done_us.is_some())
    }
}

/// A percentile as quoted: its value, the percentile actually used, and
/// the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quoted {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile used, in `(0, 1]`.
    pub q: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[(v.len() - 1) / 2])
}

/// The tail percentile `q` under the percentile rule: quote the highest
/// percentile not above `q` that leaves at least [`BEYOND`] samples beyond
/// it, together with the sample count. `None` when the sample is too small
/// to leave that many beyond any sample.
pub fn tail(samples: &[f64], q: f64) -> Option<Quoted> {
    let n = samples.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the k-th smallest (0-based) is the q-percentile when
    // k = ceil(q n) - 1; n - 1 - k samples lie beyond it.
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = wanted.min(n - 1 - BEYOND);
    let used = if k == wanted {
        q
    } else {
        (k + 1) as f64 / n as f64
    };
    Some(Quoted {
        value: v[k],
        q: used,
        n,
    })
}

/// The verdict on one fixed-rate rung of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, ops/s.
    pub rate: f64,
    /// Requests due in the rung.
    pub due: usize,
    /// Requests written.
    pub sent: usize,
    /// Requests that failed (error reply or unanswered at drain).
    pub failed: usize,
    /// Replies that arrived within the rung's window plus the latency limit.
    pub answered_in_window: usize,
    /// Tail latency over every sent request, failures counting as infinite.
    pub p99_ms: Option<Quoted>,
}

impl Rung {
    /// Judge a rung from the outcomes of the requests due in it; the rung
    /// ends at `end_us`.
    pub fn judge(rate: f64, outcomes: &[Outcome], end_us: u64, limit_ms: f64) -> Self {
        let grace_end = end_us + (limit_ms * 1e3) as u64;
        let sent: Vec<&Outcome> = outcomes.iter().filter(|o| o.sent_us.is_some()).collect();
        let latencies: Vec<f64> = sent
            .iter()
            .map(|o| o.latency_us().map_or(f64::INFINITY, |us| us as f64 / 1e3))
            .collect();
        Rung {
            rate,
            due: outcomes.len(),
            sent: sent.len(),
            failed: sent.iter().filter(|o| o.failed()).count(),
            answered_in_window: sent
                .iter()
                .filter(|o| o.ok && o.done_us.is_some_and(|d| d <= grace_end))
                .count(),
            p99_ms: tail(&latencies, 0.99),
        }
    }

    /// The backlog grew: fewer than 99% of the requests sent were answered
    /// within the window, so the queue outlived the rung.
    pub fn backlog_grew(&self) -> bool {
        (self.answered_in_window as f64) < 0.99 * self.sent as f64
    }

    /// Every request was sent, none failed, the backlog stayed flat, and
    /// the quoted tail latency is within `limit_ms`.
    pub fn sustained(&self, limit_ms: f64) -> bool {
        self.due > 0
            && self.sent == self.due
            && self.failed == 0
            && !self.backlog_grew()
            && self.p99_ms.is_some_and(|p| p.value <= limit_ms)
    }
}

/// The highest rung rate sustained with every lower rung sustained too.
pub fn max_sustained_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.sustained(limit_ms))
        .last()
        .map(|r| r.rate)
}

/// Add-one failure fraction, `(failed + 1) / (attempted + 1)`: a clean run
/// reads `1 / (attempted + 1)` instead of 0, so the figure stays a ratio
/// a regression can be measured against, and one new failure doubles it.
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    (failed + 1) as f64 / (attempted + 1) as f64
}

/// Fp of a set of per-name clusterings against their truth labels, pooled
/// into one partition (names never share an entity). `clusters[i]` must
/// cover `0..truth[i].len()` exactly once; check with [`covers_once`].
pub fn pooled_fp(clusters: &[Vec<Vec<usize>>], truth: &[Vec<u32>]) -> f64 {
    let mut predicted = Vec::new();
    let mut expected = Vec::new();
    let (mut next_pred, mut next_truth) = (0u32, 0u32);
    for (name_clusters, labels) in clusters.iter().zip(truth) {
        let mut local = vec![0u32; labels.len()];
        for (c, members) in name_clusters.iter().enumerate() {
            for &m in members {
                local[m] = next_pred + c as u32;
            }
        }
        next_pred += name_clusters.len() as u32;
        predicted.extend(local);
        let span = labels.iter().copied().max().map_or(0, |m| m + 1);
        expected.extend(labels.iter().map(|&l| next_truth + l));
        next_truth += span;
    }
    fp_measure(
        &Partition::from_labels(predicted),
        &Partition::from_labels(expected),
    )
}

/// Every document `0..n` appears in exactly one of `groups`.
pub fn covers_once(groups: &[Vec<usize>], n: usize) -> bool {
    let mut seen = vec![false; n];
    for &m in groups.iter().flatten() {
        if m >= n || seen[m] {
            return false;
        }
        seen[m] = true;
    }
    seen.into_iter().all(|s| s)
}

/// Clusters in a canonical order (members ascending, clusters by first
/// member), so two clusterings compare with `==`.
pub fn canonical(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(due_us: u64, sent_us: u64, done_us: u64) -> Outcome {
        Outcome {
            due_us,
            sent_us: Some(sent_us),
            done_us: Some(done_us),
            ok: true,
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_time_through_a_stall() {
        // Requests due every 10 ms; the server stalls from 20 ms to 120 ms,
        // and the generator itself is blocked writing until 120 ms, so the
        // requests due at 30..110 ms go out late and come back at 125 ms.
        let mut outcomes = vec![answered(0, 0, 1_000), answered(10_000, 10_000, 11_000)];
        for due in (20_000..=110_000).step_by(10_000) {
            outcomes.push(answered(due, due.max(120_000), 125_000));
        }
        let latencies: Vec<u64> = outcomes.iter().filter_map(Outcome::latency_us).collect();
        // From the due time, not the send time: the request due at 30 ms
        // waited 95 ms although it was only on the wire for 5 ms.
        assert_eq!(latencies[3], 95_000);
        assert_eq!(latencies[2], 105_000);
        assert_eq!(*latencies.last().unwrap(), 15_000);
        assert_eq!(outcomes[3].lag_us(), Some(90_000));
        assert_eq!(outcomes[0].lag_us(), Some(0));
    }

    #[test]
    fn unanswered_and_error_replies_fail_but_unsent_does_not() {
        let unanswered = Outcome {
            due_us: 5,
            sent_us: Some(5),
            done_us: None,
            ok: false,
        };
        let refused = Outcome {
            ok: false,
            ..answered(5, 5, 9)
        };
        let unsent = Outcome {
            due_us: 5,
            ..Outcome::default()
        };
        assert!(unanswered.failed() && refused.failed());
        assert!(!unsent.failed() && !answered(5, 5, 9).failed());
        assert_eq!(unanswered.latency_us(), None);
        assert_eq!(refused.latency_us(), None);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples support p99: 20 lie beyond the 1980th.
        let p = tail(&samples, 0.99).unwrap();
        assert_eq!((p.value, p.q, p.n), (1980.0, 0.99, 2000));
        // 300 samples do not: the quote falls back to the 290th (p96.67),
        // which leaves exactly ten beyond it.
        let few: Vec<f64> = (1..=300).map(f64::from).collect();
        let p = tail(&few, 0.99).unwrap();
        assert_eq!(p.value, 290.0);
        assert!((p.q - 290.0 / 300.0).abs() < 1e-12);
        assert_eq!(few.iter().filter(|&&x| x > p.value).count(), BEYOND);
        // Ten samples leave no percentile with ten beyond it.
        assert_eq!(tail(&few[..10], 0.99), None);
        assert_eq!(tail(&few[..11], 0.99).unwrap().value, 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn failures_count_as_infinitely_late_in_the_rung_tail() {
        // 1000 fast replies and 11 unanswered: the rule quotes p98.9 and
        // that sample is a failure, so the rung misses any limit.
        let mut outcomes: Vec<Outcome> = (0..1000).map(|i| answered(i, i, i + 500)).collect();
        outcomes.extend((0..11).map(|i| Outcome {
            due_us: 1000 + i,
            sent_us: Some(1000 + i),
            done_us: None,
            ok: false,
        }));
        let rung = Rung::judge(250.0, &outcomes, 2_000_000, 50.0);
        assert_eq!(rung.failed, 11);
        assert!(rung.p99_ms.unwrap().value.is_infinite());
        assert!(!rung.sustained(50.0));
    }

    #[test]
    fn backlog_growth_is_detected_from_answers_in_the_window() {
        // A rung from 0 to 1 s at 1000 ops/s whose server keeps up only
        // with the first 900: the rest come back after the window closed.
        let outcomes: Vec<Outcome> = (0..1000u64)
            .map(|i| {
                let due = i * 1000;
                let done = if i < 900 { due + 2_000 } else { 1_500_000 + i };
                answered(due, due, done)
            })
            .collect();
        let rung = Rung::judge(1000.0, &outcomes, 1_000_000, 50.0);
        assert_eq!(rung.answered_in_window, 900);
        assert!(rung.backlog_grew());
        assert!(!rung.sustained(50.0));
        // The same rung with everything back inside the window is sustained.
        let steady: Vec<Outcome> = (0..1000u64)
            .map(|i| answered(i * 1000, i * 1000, i * 1000 + 2_000))
            .collect();
        let rung = Rung::judge(1000.0, &steady, 1_000_000, 50.0);
        assert!(!rung.backlog_grew() && rung.sustained(50.0));
        // A rung cut short (not every request sent) is never sustained.
        let mut cut = steady.clone();
        cut[999].sent_us = None;
        cut[999].done_us = None;
        assert!(!Rung::judge(1000.0, &cut, 1_000_000, 50.0).sustained(50.0));
    }

    #[test]
    fn max_rate_is_the_top_of_the_sustained_prefix() {
        let steady: Vec<Outcome> = (0..100u64)
            .map(|i| answered(i * 100, i * 100, i * 100 + 1_000))
            .collect();
        let slow: Vec<Outcome> = (0..100u64)
            .map(|i| answered(i * 100, i * 100, i * 100 + 90_000))
            .collect();
        let ok = |rate| Rung::judge(rate, &steady, 100_000, 50.0);
        let bad = |rate| Rung::judge(rate, &slow, 100_000, 50.0);
        assert_eq!(
            max_sustained_rate(&[ok(250.0), ok(500.0), bad(1000.0)], 50.0),
            Some(500.0)
        );
        // A sustained rung above a failed one does not count.
        assert_eq!(
            max_sustained_rate(&[ok(250.0), bad(500.0), ok(1000.0)], 50.0),
            Some(250.0)
        );
        assert_eq!(max_sustained_rate(&[bad(250.0)], 50.0), None);
    }

    #[test]
    fn fp_against_a_hand_made_partition() {
        // Name A: truth {0,1,2} {3}; served {0,1} {2,3}.
        // Purity = (2 + 1) / 4 = 0.75 and inverse purity = (2 + 1) / 4 = 0.75,
        // so Fp = 0.75. Name B is resolved perfectly: truth {0,1}, served
        // {0,1}. Pooled over six documents: purity = (2 + 1 + 2) / 6 and
        // inverse purity = (2 + 1 + 2) / 6, so Fp = 5/6.
        let served = vec![vec![vec![0, 1], vec![2, 3]], vec![vec![0, 1]]];
        let truth = vec![vec![0, 0, 0, 1], vec![7, 7]];
        assert!((pooled_fp(&served[..1], &truth[..1]) - 0.75).abs() < 1e-12);
        assert!((pooled_fp(&served, &truth) - 5.0 / 6.0).abs() < 1e-12);
        assert!((pooled_fp(&served[1..], &truth[1..]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_and_canonical_order() {
        assert!(covers_once(&[vec![2, 0], vec![1]], 3));
        assert!(!covers_once(&[vec![0, 1], vec![1, 2]], 3));
        assert!(!covers_once(&[vec![0, 1]], 3));
        assert!(!covers_once(&[vec![0, 3]], 3));
        assert_eq!(
            canonical(vec![vec![3, 1], vec![0, 2]]),
            vec![vec![0, 2], vec![1, 3]]
        );
        assert_eq!(failed_frac(0, 999), 0.001);
        assert_eq!(failed_frac(1, 999), 0.002);
    }
}
