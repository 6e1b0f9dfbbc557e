//! Deterministic synthetic arrival workloads for the serving front.
//!
//! All timestamps are simulated accelerator cycles; patterns are pure
//! functions of their parameters (no random state), so a workload replays
//! identically across runs and worker counts.

use crate::{BoxError, Result};

/// Shape of the open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// One request every `1/rate` seconds.
    Uniform,
    /// Groups of `size` requests arriving together, with the gaps widened
    /// so the long-run request rate matches the uniform pattern.
    Burst {
        /// Requests per burst (≥ 1).
        size: usize,
    },
}

/// The arrival timestamps (in cycles at `frequency_hz`) of `requests`
/// open-loop requests at a long-run rate of `rate_hz` requests per second,
/// shaped by `pattern`. Timestamps are non-decreasing.
///
/// # Errors
///
/// Rejects non-positive rates/frequencies and empty bursts.
pub fn open_loop_arrivals(
    requests: usize,
    rate_hz: f64,
    frequency_hz: f64,
    pattern: ArrivalPattern,
) -> Result<Vec<u64>> {
    if rate_hz <= 0.0 || frequency_hz <= 0.0 || !rate_hz.is_finite() || !frequency_hz.is_finite() {
        return Err(BoxError::from("arrival rate and clock frequency must be positive"));
    }
    let cycles_per_request = frequency_hz / rate_hz;
    let group = match pattern {
        ArrivalPattern::Uniform => 1,
        ArrivalPattern::Burst { size } => {
            if size == 0 {
                return Err(BoxError::from("burst size must be at least 1"));
            }
            size
        }
    };
    Ok((0..requests)
        .map(|i| ((i / group) as f64 * group as f64 * cycles_per_request).round() as u64)
        .collect())
}

/// One serving request of a (possibly mixed-model) workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the served model set.
    pub model: usize,
    /// Arrival time in cycles.
    pub arrival: u64,
    /// Absolute completion deadline in cycles (`None` = best effort). A
    /// request completing after its deadline is still served but counts as
    /// a deadline miss.
    pub deadline: Option<u64>,
}

/// The open-loop request stream of a mixed-model SLO workload: arrivals
/// from [`open_loop_arrivals`], request `i` targeting model `i % models`
/// (a deterministic interleave, so bursts mix models and exercise
/// switches), and — when `deadline` is given — an absolute deadline of
/// `arrival + deadline` cycles per request.
///
/// # Errors
///
/// As [`open_loop_arrivals`], plus a zero model count, plus an
/// `arrival + deadline` sum that overflows `u64` (a late arrival combined
/// with a huge SLO budget must fail loudly, not wrap into the past and
/// charge a spurious miss).
pub fn request_stream(
    requests: usize,
    rate_hz: f64,
    frequency_hz: f64,
    pattern: ArrivalPattern,
    models: usize,
    deadline: Option<u64>,
) -> Result<Vec<Request>> {
    if models == 0 {
        return Err(BoxError::from("a request stream needs at least one model"));
    }
    let mut stream = Vec::with_capacity(requests);
    for (i, arrival) in
        open_loop_arrivals(requests, rate_hz, frequency_hz, pattern)?.into_iter().enumerate()
    {
        let deadline = match deadline {
            None => None,
            Some(d) => Some(arrival.checked_add(d).ok_or_else(|| {
                BoxError::from(format!(
                    "deadline overflows the cycle clock: request {i} arrives at \
                     cycle {arrival} with SLO budget {d}"
                ))
            })?),
        };
        stream.push(Request { model: i % models, arrival, deadline });
    }
    Ok(stream)
}

/// Rejects an arrival sequence that goes back in time, naming the first
/// out-of-order index — the serving drivers interleave arrivals with
/// launches and faults by time, so an unsorted stream would silently
/// reorder the workload. One O(n) scan.
pub(crate) fn check_sorted(arrivals: impl IntoIterator<Item = u64>) -> Result<()> {
    let mut prev = 0u64;
    for (i, arrival) in arrivals.into_iter().enumerate() {
        if arrival < prev {
            return Err(BoxError::from(format!(
                "arrivals must be non-decreasing: arrival {i} at cycle {arrival} precedes \
                 arrival {} at cycle {prev}",
                i - 1
            )));
        }
        prev = arrival;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spaces_requests_evenly() {
        // 1 kHz arrivals on a 1 MHz clock: 1000 cycles apart.
        let a = open_loop_arrivals(4, 1e3, 1e6, ArrivalPattern::Uniform).unwrap();
        assert_eq!(a, vec![0, 1000, 2000, 3000]);
    }

    #[test]
    fn bursts_group_requests_and_preserve_the_rate() {
        let a = open_loop_arrivals(7, 1e3, 1e6, ArrivalPattern::Burst { size: 3 }).unwrap();
        assert_eq!(a, vec![0, 0, 0, 3000, 3000, 3000, 6000]);
        // Long-run rate preserved: request 6 arrives when the uniform
        // pattern would emit request 6.
        let u = open_loop_arrivals(7, 1e3, 1e6, ArrivalPattern::Uniform).unwrap();
        assert_eq!(a[6], u[6]);
    }

    #[test]
    fn request_stream_interleaves_models_and_stamps_deadlines() {
        let rs = request_stream(5, 1e3, 1e6, ArrivalPattern::Uniform, 2, Some(400)).unwrap();
        let models: Vec<usize> = rs.iter().map(|r| r.model).collect();
        assert_eq!(models, vec![0, 1, 0, 1, 0]);
        assert_eq!(rs[3].arrival, 3000);
        assert_eq!(rs[3].deadline, Some(3400));
        let best_effort = request_stream(3, 1e3, 1e6, ArrivalPattern::Uniform, 1, None).unwrap();
        assert!(best_effort.iter().all(|r| r.deadline.is_none() && r.model == 0));
        assert!(request_stream(3, 1e3, 1e6, ArrivalPattern::Uniform, 0, None).is_err());
    }

    #[test]
    fn overflowing_deadlines_error_instead_of_wrapping() {
        // The second arrival is at cycle 1000; adding u64::MAX would wrap
        // to the distant past and count as an instant deadline miss.
        let err = request_stream(2, 1e3, 1e6, ArrivalPattern::Uniform, 1, Some(u64::MAX))
            .expect_err("wrapping deadline must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("overflows"), "unexpected error: {msg}");
        assert!(msg.contains("request 1"), "should name the offending request: {msg}");
        // A budget that fits is unaffected.
        assert!(request_stream(2, 1e3, 1e6, ArrivalPattern::Uniform, 1, Some(1)).is_ok());
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        assert!(open_loop_arrivals(1, 0.0, 1e9, ArrivalPattern::Uniform).is_err());
        assert!(open_loop_arrivals(1, 1.0, -1.0, ArrivalPattern::Uniform).is_err());
        assert!(open_loop_arrivals(1, 1.0, 1e9, ArrivalPattern::Burst { size: 0 }).is_err());
        assert!(open_loop_arrivals(0, 1.0, 1e9, ArrivalPattern::Uniform).unwrap().is_empty());
    }
}
