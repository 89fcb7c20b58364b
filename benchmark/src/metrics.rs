//! The metric names and units `BENCHMARK.json` declares, and the report
//! that holds one run's values for them.
//!
//! Every run prints every metric of its list: a per-layer metric reads 0
//! on a workload whose queries never enter that layer (no TCP on
//! `hot_trec`, no `pread` on `mixed_open`, …).

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("long_latency_p95_ms", "ms"),
    ("index_bytes_per_posting", "B"),
    ("peak_rss_mb", "MiB"),
    ("p_at_20", "ratio"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    // compress
    ("compress.docid_decode_ns_per_value", "ns"),
    ("compress.score_decode_ns_per_value", "ns"),
    ("compress.block_from_bytes_us", "us"),
    // storage
    ("storage.pool_hit_ns", "ns"),
    ("storage.pool_miss_us", "us"),
    ("storage.miss_reads_per_query", "count"),
    ("storage.miss_bytes_per_query", "B"),
    ("storage.refetch_ratio", "ratio"),
    ("storage.eviction_locks_per_query", "count"),
    ("storage.resident_bytes_end", "B"),
    // ir
    ("ir.search_us_p50", "us"),
    ("ir.search_us_p99", "us"),
    ("ir.short_search_us_p50", "us"),
    ("ir.long_search_us_p50", "us"),
    ("ir.long_search_us_p95", "us"),
    ("ir.long_search_exh_us_p50", "us"),
    ("ir.long_search_exh_us_p95", "us"),
    ("ir.strides_decoded_per_query", "count"),
    ("ir.rows_scored_per_query", "count"),
    ("ir.pruned_stride_ratio", "ratio"),
    ("ir.pruned_rows_ratio", "ratio"),
    ("ir.term_range_ns", "ns"),
    ("ir.cursor_seek_ns", "ns"),
    ("ir.build_postings_per_s", "1/s"),
    ("ir.segment_write_mb_per_s", "MB/s"),
    ("ir.segment_open_ms", "ms"),
    ("ir.open_resident_meta_bytes", "B"),
    ("ir.open_directory_bytes", "B"),
    // exec
    ("exec.relational_search_us_p50", "us"),
    ("exec.fused_speedup", "ratio"),
    // distributed::serve
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.short_latency_p99_ms", "ms"),
    ("serve.long_latency_p99_ms", "ms"),
    ("serve.short_queue_wait_p99_ms", "ms"),
    ("serve.long_queue_wait_p99_ms", "ms"),
    ("serve.sched_lag_p99_ms", "ms"),
    ("serve.capacity_qps", "1/s"),
    ("serve.offered_over_capacity", "ratio"),
    // distributed::cluster
    ("cluster.scatter_us_p50", "us"),
    ("cluster.slowest_node_ratio", "ratio"),
    ("cluster.merge_us_p50", "us"),
    // distributed::net
    ("net.coordinator_us_p50", "us"),
    ("net.coordinator_us_p99", "us"),
    ("net.overhead_us_p50", "us"),
    ("net.partition_attempt_us_p50", "us"),
    ("net.partition_attempt_us_p99", "us"),
    ("net.merge_hits_ns", "ns"),
    ("net.hedged_per_1k", "count"),
    ("net.failed_over", "count"),
    ("net.unavailable", "count"),
    // corpus
    ("corpus.generate_docs_per_s", "1/s"),
    // the traced pass itself
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_query", "count"),
];

/// One run's values for one of the two lists.
pub struct Report {
    list: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    /// What a metric without a value reads; `None` = it must have one.
    unmeasured: Option<f64>,
}

impl Report {
    /// Every end-to-end metric must be measured on every workload.
    pub fn end_to_end() -> Self {
        Report {
            list: END_TO_END,
            values: vec![None; END_TO_END.len()],
            unmeasured: None,
        }
    }

    /// A layer a workload's queries never enter reads 0.
    pub fn per_layer() -> Self {
        Report {
            list: PER_LAYER,
            values: vec![None; PER_LAYER.len()],
            unmeasured: Some(0.0),
        }
    }

    /// Records a metric's value.
    ///
    /// # Panics
    /// Panics on a name outside the list, a second value for one name, or
    /// a value that is not finite: each is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` of every metric of the list.
    ///
    /// # Panics
    /// Panics if an end-to-end metric has no value.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.list
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| {
                let value = value
                    .or(self.unmeasured)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let mut r = Report::per_layer();
        r.set("storage.pool_hit_ns", 12.5);
        let rows = r.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("storage.pool_hit_ns", 12.5, "ns")));
        assert!(rows.contains(&("net.unavailable", 0.0, "count")));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn an_unmeasured_end_to_end_metric_is_a_bug() {
        Report::end_to_end().rows();
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_has_one_value() {
        let mut r = Report::end_to_end();
        r.set("qps", 1.0);
        r.set("qps", 2.0);
    }
}
