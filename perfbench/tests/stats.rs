use perfbench::stats::{
    backlog_growing, median, quartiles, relative_spread, slo_rps, tail, Rung, Timed, MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[5.0]), [5.0; 3]);
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    assert!((relative_spread(&ramp(10)) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(relative_spread(&[2.0; 7]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let t = tail(&ramp(1000)).expect("1000 samples support a tail");
    assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

    // One sample fewer leaves only 9 beyond p99, so p90 is reported.
    let t = tail(&ramp(999)).expect("999 samples support a tail");
    assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 99));

    let t = tail(&ramp(10_000)).expect("10k samples support a tail");
    assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));

    // The median needs ten samples beyond it as well.
    assert_eq!(tail(&ramp(2 * MIN_BEYOND - 1)), None);
    let t = tail(&ramp(2 * MIN_BEYOND)).expect("20 samples support a median");
    assert_eq!((t.percentile, t.beyond), (50.0, MIN_BEYOND));
}

#[test]
fn failed_requests_count_against_the_tail() {
    let mut samples = ramp(1000);
    for s in samples.iter_mut().take(15) {
        *s = f64::INFINITY;
    }
    let t = tail(&samples).expect("1000 samples support a tail");
    assert_eq!(t.percentile, 99.0);
    assert!(t.value.is_infinite(), "15 failures lie past p99");
}

fn req(due: f64, sent: f64, done: f64) -> Timed {
    Timed {
        due_ms: due,
        sent_ms: sent,
        done_ms: done,
        sent: true,
        ok: true,
    }
}

#[test]
fn latency_counts_from_the_due_time() {
    let r = req(10.0, 14.0, 15.5);
    assert_eq!(r.latency_ms(), 5.5);
    assert_eq!(r.lateness_ms(), 4.0);
    assert_eq!(req(10.0, 9.9, 11.0).lateness_ms(), 0.0);
    let failed = Timed { ok: false, ..r };
    assert!(failed.latency_ms().is_infinite());
    let unsent = Timed {
        sent: false,
        ok: false,
        ..r
    };
    assert!(unsent.latency_ms().is_infinite());
}

/// A blocking client on a 1 ms schedule; request 2 stalls for 10 ms.
fn stalled_schedule() -> Vec<Timed> {
    let mut out = Vec::new();
    let mut free_at = 0.0f64;
    for i in 0..8 {
        let due = i as f64;
        let sent = due.max(free_at);
        let service = if i == 2 { 10.0 } else { 0.5 };
        free_at = sent + service;
        out.push(req(due, sent, free_at));
    }
    out
}

#[test]
fn a_stall_charges_the_requests_queued_behind_it() {
    let rs = stalled_schedule();
    // Request 3 was due at 3 ms but could only go at 12 ms.
    assert_eq!(rs[3].lateness_ms(), 9.0);
    assert_eq!(rs[3].latency_ms(), 9.5);
    // Timing from the send instead would hide the wait entirely.
    assert_eq!(rs[3].done_ms - rs[3].sent_ms, 0.5);
}

fn rung(rate: f64, lateness: impl Fn(usize) -> f64, service: f64, n: usize) -> Rung {
    let requests = (0..n)
        .map(|i| {
            let due = i as f64 * 1000.0 / rate;
            let sent = due + lateness(i);
            req(due, sent, sent + service)
        })
        .collect();
    Rung { rate, requests }
}

#[test]
fn backlog_is_growing_lateness_not_steady_lateness() {
    let steady = rung(100.0, |_| 2.0, 1.0, 400);
    assert!(!backlog_growing(&steady.requests, 5.0));
    let growing = rung(100.0, |i| i as f64 * 0.05, 1.0, 400);
    assert!(backlog_growing(&growing.requests, 5.0));
    assert!(!backlog_growing(&[], 5.0));
}

#[test]
fn slo_rps_is_the_highest_rate_meeting_the_objective_from_below() {
    let ok = |rate| rung(rate, |_| 0.1, 2.0, 400);
    let slow = |rate| rung(rate, |_| 0.1, 30.0, 400);
    let backlog = |rate| rung(rate, |i| i as f64 * 0.05, 2.0, 400);
    let failing = |rate| {
        let mut r = ok(rate);
        r.requests[7].ok = false;
        r
    };
    assert_eq!(slo_rps(&[ok(100.0), ok(200.0), slow(400.0)], 25.0), 200.0);
    assert_eq!(
        slo_rps(&[ok(100.0), ok(200.0), backlog(400.0)], 25.0),
        200.0
    );
    assert_eq!(
        slo_rps(&[ok(100.0), failing(200.0), ok(400.0)], 25.0),
        100.0
    );
    assert_eq!(slo_rps(&[slow(100.0), ok(200.0)], 25.0), 0.0);
    // Rungs are judged in rate order whatever order they ran in.
    assert_eq!(slo_rps(&[ok(400.0), ok(100.0), ok(200.0)], 25.0), 400.0);
    // Too few requests for a tail percentile: the rung does not pass.
    assert_eq!(slo_rps(&[rung(100.0, |_| 0.1, 2.0, 5)], 25.0), 0.0);
}
