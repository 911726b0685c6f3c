//! Reader for the metrics registry's Prometheus-style text exposition —
//! the one format both an in-process registry (`render_text`) and a
//! remote server (`query_metrics`) hand out, so every registry-backed
//! layer metric is read the same way on every workload.

use crate::stats::histogram_quantile;

struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// One parsed exposition.
pub struct Scrape {
    samples: Vec<Sample>,
}

/// A histogram family merged over its label sets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Finite upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts, `+Inf` last.
    pub buckets: Vec<u64>,
    pub sum: f64,
    pub count: f64,
}

impl Histogram {
    pub fn mean(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.sum / self.count
        }
    }

    /// Bucket-interpolated quantile: buckets are ×4 apart, so this
    /// places a percentile within its bucket, no finer.
    pub fn quantile(&self, q: f64) -> f64 {
        histogram_quantile(&self.bounds, &self.buckets, q)
    }
}

fn parse_labels(text: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        // Label values in this registry never contain an escaped quote
        // in practice (shard numbers, kind names); stop at the first.
        let (value, after) = after.split_once('"')?;
        labels.push((key.to_string(), value.to_string()));
        rest = after.strip_prefix(',').unwrap_or(after);
    }
    Some(labels)
}

impl Scrape {
    /// Parses an exposition; lines that are not samples are skipped.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                let value = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, labels)) => (name, parse_labels(labels.strip_suffix('}')?)?),
                    None => (series, Vec::new()),
                };
                Some(Sample {
                    name: name.to_string(),
                    labels,
                    value,
                })
            })
            .collect();
        Scrape { samples }
    }

    /// Sample lines in the exposition.
    pub fn series(&self) -> usize {
        self.samples.len()
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        filter: Option<(&'a str, &'a str)>,
    ) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| {
            s.name == name
                && filter.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }

    /// Sum of a counter or gauge family over its label sets.
    pub fn total(&self, name: &str) -> f64 {
        self.matching(name, None).map(|s| s.value).sum()
    }

    /// A histogram family merged over the label sets that carry
    /// `filter` (all of them when `None`).
    pub fn histogram(&self, name: &str, filter: Option<(&str, &str)>) -> Histogram {
        let mut cumulative: Vec<(u64, f64)> = Vec::new();
        let mut infinite = 0.0;
        for sample in self.matching(&format!("{name}_bucket"), filter) {
            let Some((_, le)) = sample.labels.iter().find(|(k, _)| k == "le") else {
                continue;
            };
            match le.parse::<u64>() {
                Ok(bound) => match cumulative.iter_mut().find(|(b, _)| *b == bound) {
                    Some((_, total)) => *total += sample.value,
                    None => cumulative.push((bound, sample.value)),
                },
                Err(_) => infinite += sample.value,
            }
        }
        cumulative.sort_by_key(|(bound, _)| *bound);
        let mut buckets = Vec::with_capacity(cumulative.len() + 1);
        let mut below = 0.0;
        for (_, total) in cumulative.iter().chain(std::iter::once(&(0, infinite))) {
            buckets.push((total - below).max(0.0) as u64);
            below = *total;
        }
        Histogram {
            bounds: cumulative.iter().map(|(bound, _)| *bound).collect(),
            buckets,
            sum: self
                .matching(&format!("{name}_sum"), filter)
                .map(|s| s.value)
                .sum(),
            count: self
                .matching(&format!("{name}_count"), filter)
                .map(|s| s.value)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbnb_metrics::MetricsRegistry;

    #[test]
    fn reads_back_what_the_registry_renders() {
        let registry = MetricsRegistry::new();
        registry.counter("ops_total", &[("shard", "0")]).add(3);
        registry.counter("ops_total", &[("shard", "1")]).add(4);
        registry.gauge("live", &[]).set(9);
        for (kind, values) in [("a", [50u64, 150, 150]), ("b", [150, 900, 5000])] {
            let h = registry.histogram("lat_ns", &[("kind", kind)], &[100, 200, 1000]);
            values.iter().for_each(|&v| h.observe(v));
        }
        let scrape = Scrape::parse(&registry.render_text());
        assert_eq!(scrape.total("ops_total"), 7.0);
        assert_eq!(scrape.total("live"), 9.0);
        assert_eq!(scrape.total("absent"), 0.0);

        let merged = scrape.histogram("lat_ns", None);
        assert_eq!(merged.bounds, [100, 200, 1000]);
        assert_eq!(merged.buckets, [1, 3, 1, 1]);
        assert_eq!(merged.count, 6.0);
        assert_eq!(merged.sum, 6400.0);

        let only_a = scrape.histogram("lat_ns", Some(("kind", "a")));
        assert_eq!(only_a.buckets, [1, 2, 0, 0]);
        assert_eq!(only_a.mean(), 350.0 / 3.0);
        assert_eq!(
            scrape.histogram("absent", None),
            Histogram {
                buckets: vec![0],
                ..Histogram::default()
            }
        );
        // 2 counters + 1 gauge + 2 × (4 buckets + sum + count).
        assert_eq!(scrape.series(), 15);
    }
}
