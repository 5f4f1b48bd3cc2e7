//! The ledger's metric names, units and directions — the same list
//! `BENCHMARK.json` carries (a unit test holds the two together).

use std::collections::BTreeMap;

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median the
    /// metric may worsen by before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees. Reported by every workload when
/// tracing is off. The wall-clock bounds are as wide as they are
/// because the 2-vCPU reference box is that noisy: the same binary,
/// seed and op order gives `wall_s` values ±15 % apart from one process
/// to the next, whole minutes run 10–20 % slow, and more passes in a
/// process do not narrow it. Peak memory follows thread scheduling
/// (allocator arenas, per-thread scratch), and the met share follows
/// the held-out seeds where a bin was tuned to just above its target.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("op_ms_geomean", "ms", Better::Lower, 0.25),
    e2e("tuned_cost_geomean", "cost", Better::Lower, 0.05),
    e2e("accuracy_met_share", "share", Better::Higher, 0.15),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// What single layers do. Reported by every workload's traced layer
/// pass; a layer a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // pb_lang front-end.
    lower("lang.lex_us", "us"),
    lower("lang.parse_us", "us"),
    lower("lang.sema_us", "us"),
    lower("lang.schema_us", "us"),
    lower("lang.lower_us", "us"),
    lower("lang.opt_us", "us"),
    lower("lang.construct_us", "us"),
    higher("lang.tokens_per_s", "1/s"),
    lower("lang.instrs_lowered", "count"),
    lower("lang.instrs_optimized", "count"),
    higher("lang.rules_compiled_share", "share"),
    // pb_lang::vm.
    lower("vm.run_us", "us"),
    lower("vm.o0_run_us", "us"),
    lower("vm.interp_run_us", "us"),
    higher("vm.default_over_o0", "ratio"),
    higher("vm.default_over_interp", "ratio"),
    lower("vm.instrs_executed", "count"),
    higher("vm.instrs_per_s", "1/s"),
    higher("vm.specialized_instr_share", "share"),
    // pb_benchmarks / pb_linalg / pb_multigrid kernels.
    lower("kernels.trial_us.binpacking", "us"),
    lower("kernels.trial_us.clustering", "us"),
    lower("kernels.trial_us.helmholtz", "us"),
    lower("kernels.trial_us.imagecompr", "us"),
    lower("kernels.trial_us.poisson", "us"),
    lower("kernels.trial_us.precond", "us"),
    // pb_tuner.
    lower("tuner.trials", "count"),
    lower("tuner.trial_busy_s", "s"),
    lower("tuner.self_s", "s"),
    lower("tuner.self_share", "share"),
    lower("tuner.self_us_per_trial", "us"),
    lower("tuner.phase_test_s", "s"),
    lower("tuner.phase_mutate_s", "s"),
    lower("tuner.phase_guided_s", "s"),
    lower("tuner.phase_merge_s", "s"),
    lower("tuner.phase_prune_s", "s"),
    higher("tuner.children_accept_share", "share"),
    higher("tuner.cache_hit_share", "share"),
    higher("tuner.cache_coalesced", "count"),
    higher("tuner.arena_mean_round_width", "count"),
    higher("tuner.pair_memo_hit_share", "share"),
    lower("tuner.trial_retries", "count"),
    lower("tuner.quarantined", "count"),
    // pb_stats.
    lower("stats.decide_ns", "ns"),
    lower("stats.decide_winsorized_ns", "ns"),
    lower("stats.draws", "count"),
    // pb_runtime::pool.
    lower("pool.dispatch_us_w1", "us"),
    lower("pool.dispatch_us_w4", "us"),
    lower("pool.dispatch_us_w16", "us"),
    lower("pool.dispatch_us_w64", "us"),
    lower("pool.job_ns", "ns"),
    lower("pool.batches_dispatched", "count"),
    higher("pool.batches_inline", "count"),
    lower("pool.tasks", "count"),
    higher("pool.mean_batch_width", "count"),
    higher("pool.par_over_seq", "ratio"),
    higher("pool.efficiency", "share"),
    lower("pool.idle_share", "share"),
    // pb_config / tuned-program / sidecar I/O.
    lower("config.fingerprint_ns", "ns"),
    lower("config.json_roundtrip_us", "us"),
    lower("tuned.save_us", "us"),
    lower("tuned.load_us", "us"),
    lower("tuned.bytes", "B"),
    lower("tuned.bin_lookup_ns", "ns"),
    lower("cache.sidecar_save_ms", "ms"),
    lower("cache.sidecar_load_ms", "ms"),
    lower("cache.sidecar_bytes", "B"),
    higher("cache.warm_hit_share", "share"),
    higher("cache.warm_over_cold", "ratio"),
    // pb_trace.
    lower("trace.overhead_share", "share"),
    lower("trace.events", "count"),
    lower("trace.dropped", "count"),
    // pb_runtime serving.
    lower("serve.cold_start_ms", "ms"),
    lower("serve.run_us_p50", "us"),
    lower("serve.run_us_p90", "us"),
    lower("serve.verified_escalation_share", "share"),
    higher("serve.loose_over_tight", "ratio"),
];

/// Values for one of the two metric lists. Setting a name the list
/// does not define is a bug in the ledger and panics.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty value set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this list"));
        self.values.insert(def.name, value);
    }

    /// The value recorded for `name` (0 when none was).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every defined metric with its value, in definition order;
    /// metrics never set read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.get(d.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    /// The `BENCHMARK.json` spelling of a direction.
    fn spelled(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn benchmark_json() -> Value {
        let path = crate::dsl::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit, better, bound)` of every entry of `list`.
    fn listed(benchmark: &Value, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        json::items(benchmark.get(list))
            .iter()
            .map(|entry| {
                let field = |key| json::str_at(entry, key).unwrap_or("").to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    entry.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let benchmark = benchmark_json();
        for (defs, list, bounded) in [
            (END_TO_END, "end_to_end", true),
            (PER_LAYER, "per_layer", false),
        ] {
            let ours: Vec<(String, String, String, Option<f64>)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        spelled(d.better).to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect();
            assert_eq!(ours, listed(&benchmark, list), "{list}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let benchmark = benchmark_json();
        let listed: Vec<&str> = json::items(benchmark.get("workloads"))
            .iter()
            .filter_map(|w| json::str_at(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::ops::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let names: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut m = Metrics::new(PER_LAYER);
        m.set("tuner.trials", 12.0);
        assert_eq!(m.get("tuner.trials"), 12.0);
        assert_eq!(m.get("vm.run_us"), 0.0);
        assert_eq!(m.rows().count(), PER_LAYER.len());
        let unknown = std::panic::catch_unwind(move || m.set("no.such", 1.0));
        assert!(unknown.is_err());
    }
}
