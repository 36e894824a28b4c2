//! Quartiles of a sample, by the rule Python's
//! `statistics.quantiles(values, n=4)` uses, so the spread this program
//! prints is the spread the acceptance check computes.

/// First quartile, median and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// `values` needs at least two entries (one sample has no quartiles).
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    // The "exclusive" method: cut point i of 4 sits at rank i(n+1)/4,
    // interpolated linearly and clamped to the sample.
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // Ten values, the acceptance check's own sample size:
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(median(&ten), 5.5);
    }
}
