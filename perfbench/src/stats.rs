//! Statistics helpers: medians and quartiles, the tail-percentile
//! rule, due-time latency of open-loop requests, and the `slo_rps`
//! ladder with its backlog check.

/// Median of `values` (mean of the middle pair for an even count).
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread rule
/// the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Candidate tail percentiles, in parts per ten thousand.
const TAIL_CANDIDATES: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail latency together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly after it in rank order.
    pub beyond: usize,
}

/// The highest candidate percentile of `samples` with at least
/// [`MIN_BEYOND`] samples beyond it, by nearest rank. Infinite samples
/// (failed requests) sort last, so they count against the tail. `None`
/// when even the median lacks ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_CANDIDATES.iter().rev().find_map(|&ppm| {
        // Nearest rank: the ceil(n·p)-th smallest sample.
        let rank = (n * ppm as usize).div_ceil(10_000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            percentile: f64::from(ppm) / 100.0,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// One open-loop request, timed against its schedule. Times are in
/// milliseconds from the start of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// When the schedule wanted the request sent.
    pub due_ms: f64,
    /// When the generator actually sent it.
    pub sent_ms: f64,
    /// When the full response arrived.
    pub done_ms: f64,
    /// Whether it was sent at all: an overloaded generator gives up on
    /// requests still unsent well after the schedule ends.
    pub sent: bool,
    /// Whether it was sent and succeeded with correct output.
    pub ok: bool,
}

impl Timed {
    /// Latency counted from the due time, so a stall also charges the
    /// wait it imposed on every request queued behind it. A failed,
    /// refused or unsent request counts as missing any limit: infinite.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done_ms - self.due_ms
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms).max(0.0)
    }
}

/// Whether the generator fell further and further behind its schedule
/// over one rung: the median lateness of the last quarter of requests
/// (in due order) exceeds that of the first quarter by more than
/// `slack_ms`.
pub fn backlog_growing(requests: &[Timed], slack_ms: f64) -> bool {
    let mut by_due = requests.to_vec();
    by_due.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    let quarter = by_due.len() / 4;
    if quarter == 0 {
        return false;
    }
    let lateness = |rs: &[Timed]| median(&rs.iter().map(Timed::lateness_ms).collect::<Vec<_>>());
    lateness(&by_due[by_due.len() - quarter..]) - lateness(&by_due[..quarter]) > slack_ms
}

/// The outcome of one rate on the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    pub requests: Vec<Timed>,
}

impl Rung {
    pub fn failures(&self) -> usize {
        self.requests.iter().filter(|r| !r.ok).count()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.requests.iter().map(Timed::latency_ms).collect()
    }

    pub fn tail(&self) -> Option<Tail> {
        tail(&self.latencies_ms())
    }

    /// Whether this rung meets the service objective: zero failures, a
    /// tail within `limit_ms`, and no growing backlog. A rung too short
    /// to support a tail percentile does not pass.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failures() == 0
            && self.tail().is_some_and(|t| t.value <= limit_ms)
            && !backlog_growing(&self.requests, limit_ms * BACKLOG_SLACK)
    }
}

/// Growth in generator lateness, as a share of the latency limit, that
/// marks a backlog as growing.
pub const BACKLOG_SLACK: f64 = 0.2;

/// Highest rate whose rung, and every slower rung, meets the objective;
/// 0 when the slowest rung already fails.
pub fn slo_rps(ladder: &[Rung], limit_ms: f64) -> f64 {
    let mut rungs: Vec<&Rung> = ladder.iter().collect();
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    rungs
        .iter()
        .take_while(|r| r.meets(limit_ms))
        .last()
        .map_or(0.0, |r| r.rate)
}
