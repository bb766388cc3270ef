//! Measured values, their spread, and the JSON the benchmark prints.

use std::fmt::Write as _;

/// One metric of a run: its samples (one per measured repetition) and the
/// value reported for it (normally their median).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The repetitions the value summarizes (one sample for a single
    /// measurement or a count).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// A single measured value or count.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        let value = value + 0.0;
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

/// Nearest-rank percentile `p` in `[0, 100]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// FNV-1a over `bytes`, as 16 hex digits: the output digest.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `{"name": {"median": .., "q1": .., "q3": .., "spread": .., "n": ..}, ...}`.
pub fn spread_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (q1, q3) = quartiles(&m.samples).unwrap_or((m.value, m.value));
            format!(
                "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"n\": {}}}",
                string(&m.name),
                num(m.value),
                num(q1),
                num(q3),
                num(spread(&m.samples)),
                m.samples.len()
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
