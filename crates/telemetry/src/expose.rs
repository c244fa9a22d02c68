//! Exposition: Prometheus text format (0.0.4) and JSON snapshot writers.
//!
//! Both writers take a [`Snapshot`], so steady-state scraping
//! (`global().snapshot().to_prometheus()`) and interval reporting
//! (`after.diff(&before).to_json()`) share one code path. Output is fully
//! deterministic: snapshots are ordered maps and histogram buckets are
//! emitted low-to-high.

use std::fmt::Write;

use crate::registry::{bucket_upper, HistogramSnapshot, Snapshot, HISTOGRAM_BUCKETS};

/// The metric family of a possibly-labelled name: `a_total{k="v"}` →
/// `a_total`.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Counters may carry one `{key="value"}` label suffix in their
    /// registered name; histograms expand into `_bucket`/`_sum`/
    /// `_count` series with cumulative `le` buckets.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, value) in &self.counters {
            let fam = family(name);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} counter");
                last_family = fam;
            }
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            let top = highest_used_bucket(h);
            for i in 0..=top {
                cumulative += h.buckets[i];
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// Renders the snapshot as a JSON object with `counters` and
    /// `histograms` members. Histograms carry count/sum/mean, p50/p95/p99
    /// estimates, and the non-empty `[upper_bound, count]` bucket pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {value}", json_str(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                 \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"buckets\": [",
                json_str(name),
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
            let mut first = true;
            for b in 0..HISTOGRAM_BUCKETS {
                if h.buckets[b] > 0 {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}[{}, {}]", bucket_upper(b), h.buckets[b]);
                    first = false;
                }
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out.push('\n');
        out
    }
}

fn highest_used_bucket(h: &HistogramSnapshot) -> usize {
    h.buckets
        .iter()
        .rposition(|&b| b > 0)
        .unwrap_or(0)
        .clamp(1, HISTOGRAM_BUCKETS - 1)
}

/// Quotes a metric name as a JSON string (names are ASCII identifiers plus
/// `{key="value"}` label suffixes, so only `"` and `\` need escaping).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn prometheus_counters_group_by_family() {
        let r = Registry::new();
        r.counter("colr_hits_total{level=\"1\"}").add(3);
        r.counter("colr_hits_total{level=\"2\"}").add(5);
        r.counter("colr_misses_total").add(1);
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE colr_hits_total counter").count(),
            1,
            "one TYPE line per family:\n{text}"
        );
        assert!(text.contains("colr_hits_total{level=\"1\"} 3"));
        assert!(text.contains("colr_hits_total{level=\"2\"} 5"));
        assert!(text.contains("# TYPE colr_misses_total counter"));
        assert!(text.contains("colr_misses_total 1"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_us");
        h.observe(1); // bucket 1, le=1
        h.observe(3); // bucket 2, le=3
        h.observe(3);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 7"));
        assert!(text.contains("lat_us_count 3"));
    }

    #[test]
    fn json_is_deterministic_and_parsable_shape() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").add(1);
        r.histogram("h_us").observe(100);
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b, "same state, same bytes");
        // Sorted keys: a_total before b_total.
        assert!(a.find("\"a_total\"").unwrap() < a.find("\"b_total\"").unwrap());
        assert!(a.contains("\"count\": 1"));
        assert!(a.contains("\"p50\""));
        assert!(a.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_snapshot_exposes_cleanly() {
        let r = Registry::new();
        assert_eq!(r.snapshot().to_prometheus(), "");
        let json = r.snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
    }
}
