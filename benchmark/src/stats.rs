//! Median and quartiles of a sample.

use crate::json::Value;

/// Median, first and third quartile and size of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the rule the driver applies to the benchmark's own runs), so that a
    /// spread printed here and one computed there agree.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// A quantity measured once.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj([
            ("value", self.median.into()),
            ("unit", Value::str(unit)),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
            ("n", self.n.into()),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            median: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

/// Median of a sample; NaN for an empty one, which a result file shows as
/// `null` and the smoke test rejects.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        Summary::of(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::Summary;

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
