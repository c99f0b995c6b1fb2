//! The benchmark's own arithmetic: latency summaries under the tail rule, due-time
//! latency, and span self time. Kept free of I/O so the self-tests pin it exactly.

/// A latency sample: milliseconds from the request's due time to its answer, or
/// `None` for a request that failed, was refused or was never answered. A `None`
/// counts as missing every latency limit.
pub type Sample = Option<f64>;

/// Median and tail of one phase's latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median, in the samples' unit (`f64::INFINITY` when failures reach it).
    pub p50: f64,
    /// The [`TAIL_PCT`]th percentile, or the highest with ten samples beyond it if
    /// that is lower.
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_pct: f64,
    /// Samples summarized.
    pub n: usize,
}

/// The percentile reported as the tail. A phase's samples are pooled over many
/// seconds, so the highest percentile with ten samples beyond it would climb to the
/// 98th or 99th and track the host's rare stalls rather than the program. The 75th
/// stays inside the dense part of every workload's distribution: among the big BERT
/// layers (a third of the reads and pushes, by the fixed layer rotation), and below the
/// requests that queued behind another at `relu-fresh`'s rates.
pub const TAIL_PCT: f64 = 75.0;

/// Summarizes `samples`: sort (failures last, as +∞), take the median by nearest rank,
/// and as tail the [`TAIL_PCT`]th percentile by nearest rank. A sample too small to have
/// ten samples beyond that percentile falls back to the tail rule: the highest
/// percentile with ten samples beyond it, and with eleven samples or fewer the median.
pub fn summarize(samples: &[Sample]) -> Summary {
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            p50: f64::INFINITY,
            tail: f64::INFINITY,
            tail_pct: 0.0,
            n,
        };
    }
    let median_rank = (n - 1) / 2;
    let tail_rank = ((TAIL_PCT / 100.0 * n as f64).ceil() as usize)
        .saturating_sub(1)
        .min(n.saturating_sub(11))
        .max(median_rank);
    Summary {
        p50: sorted[median_rank],
        tail: sorted[tail_rank],
        tail_pct: 100.0 * (tail_rank + 1) as f64 / n as f64,
        n,
    }
}

/// Latency of each request measured from when it was *due*, not from when the
/// generator got round to sending it: a sender that stalls makes every request behind
/// it wait, and that wait belongs in the measurement. Times are offsets from one
/// origin, in any single unit.
pub fn due_latencies(due: &[f64], answered: &[Option<f64>]) -> Vec<Sample> {
    due.iter()
        .zip(answered)
        .map(|(&due, answered)| answered.map(|at| at - due))
        .collect()
}

/// Upper quantile of plain numbers by nearest rank (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[rank]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median by nearest rank; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host steal time (percent of all CPU time) up to which a block counts as calm.
pub const CALM_STEAL_PCT: f64 = 2.0;
/// Fewest blocks a metric is taken over.
pub const MIN_CALM_BLOCKS: usize = 3;

/// Indices of the blocks a metric is taken over, in run order. On this kind of host
/// the hypervisor takes the CPUs away in spells of ten seconds and more, and a block
/// with 5% steal time already reads a third slower. So a metric uses the blocks whose
/// steal is at most [`CALM_STEAL_PCT`] or twice the least-stolen block's, whichever
/// is higher: every block of a calm run, and the calm stretches of a run that a spell
/// covered in part. At least the [`MIN_CALM_BLOCKS`] least-stolen blocks are used;
/// ties go to the earlier block.
pub fn calm_blocks(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let limit = order.first().map_or(CALM_STEAL_PCT, |&least| {
        CALM_STEAL_PCT.max(2.0 * steal[least])
    });
    let calm = order.iter().take_while(|&&i| steal[i] <= limit).count();
    order.truncate(calm.max(MIN_CALM_BLOCKS));
    order.sort_unstable();
    order
}

/// One traced call into a layer: `[start, end)` in nanoseconds from the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public entry point the span wraps, e.g. `serving.enqueue`.
    pub name: &'static str,
    /// Start, nanoseconds since the traced run began.
    pub start: u64,
    /// End, nanoseconds since the traced run began.
    pub end: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request (or push) the span served.
    pub request: u64,
}

/// Each span's self time: its duration minus the part of its interval that its
/// children cover (overlapping children are counted once, and a child's time outside
/// its parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.end.saturating_sub(span.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: impl IntoIterator<Item = u32>) -> Vec<Sample> {
        values.into_iter().map(|v| Some(f64::from(v))).collect()
    }

    #[test]
    fn tail_is_the_75th_percentile() {
        let summary = summarize(&ms(1..=100));
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.tail, 75.0);
        assert_eq!(summary.tail_pct, 75.0);
        let summary = summarize(&ms(1..=1000));
        assert_eq!(summary.tail, 750.0);
        assert_eq!(summary.n, 1000);
    }

    #[test]
    fn small_samples_keep_ten_beyond_the_tail() {
        // 36 samples: the 75th percentile (rank 27) has only nine beyond it, so the
        // tail is the 26th sample, with exactly ten beyond.
        let summary = summarize(&ms(1..=36));
        assert_eq!(summary.tail, 26.0);
        assert!((summary.tail_pct - 72.22).abs() < 0.01);
        assert_eq!(summarize(&ms(1..=40)).tail, 30.0);
        let summary = summarize(&ms(1..=11));
        assert_eq!(summary.p50, 6.0);
        assert_eq!(summary.tail, 6.0);
        assert_eq!(summarize(&ms([4])).tail, 4.0);
    }

    #[test]
    fn failures_count_as_misses_in_the_tail() {
        let mut samples = ms(1..=100);
        samples[0] = None;
        let summary = summarize(&samples);
        // The failure sorts above every answer, pushing the tail one rank up.
        assert_eq!(summary.tail, 76.0);
        for sample in samples.iter_mut().take(26) {
            *sample = None;
        }
        assert_eq!(summarize(&samples).tail, f64::INFINITY);
        assert!(summarize(&samples).p50.is_finite());
    }

    #[test]
    fn due_time_latency_counts_a_stalled_sender() {
        // Requests due every 1 ms; the sender stalled 10 ms before the first send,
        // and each answer then came 0.5 ms after its (late) send.
        let due: Vec<f64> = (0..5).map(f64::from).collect();
        let sent: Vec<f64> = due.iter().map(|&d| d.max(10.0)).collect();
        let answered: Vec<Option<f64>> = sent.iter().map(|&s| Some(s + 0.5)).collect();
        let latencies = due_latencies(&due, &answered);
        assert_eq!(latencies[0], Some(10.5));
        assert_eq!(latencies[4], Some(6.5));
        let unanswered = due_latencies(&due, &[None, Some(2.0), None, None, None]);
        assert_eq!(unanswered[0], None);
        assert_eq!(unanswered[1], Some(1.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 7,
        };
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("enqueue", 20, 50, Some(0)),
            span("wait", 90, 120, Some(0)),
            span("inner", 25, 35, Some(2)),
        ];
        // Children of `request` cover [10, 50) ∪ [90, 100) = 50 ns of its 100.
        assert_eq!(self_times(&spans), vec![50, 20, 20, 30, 10]);
    }

    #[test]
    fn calm_blocks_drop_the_stolen_stretch() {
        // A calm run keeps every block at or under 2% steal.
        assert_eq!(calm_blocks(&[0.5, 0.0, 1.9, 2.5, 0.3]), vec![0, 1, 2, 4]);
        // A spell over most of the run: only blocks within twice the least steal,
        // topped up to three.
        let spell = [19.3, 16.4, 19.1, 14.7, 18.7, 17.8, 5.9, 9.5, 1.1, 6.4];
        assert_eq!(calm_blocks(&spell), vec![6, 8, 9]);
        // Steal spread evenly over the run: every block within twice the least.
        assert_eq!(calm_blocks(&[3.0, 4.0, 3.5, 5.0]), vec![0, 1, 2, 3]);
        assert_eq!(calm_blocks(&[2.0, 1.0]), vec![0, 1]);
        assert_eq!(calm_blocks(&[]), Vec::<usize>::new());
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&values), 5.0);
        assert_eq!(quantile(&values, 0.99), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
