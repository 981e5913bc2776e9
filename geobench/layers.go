package main

import (
	"fmt"
	"strings"

	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// layerDef is one per-layer metric: every traced run reports all of
// them, 0 where the layer is not on the workload's path or not visible
// from outside the program.
type layerDef struct {
	name, unit string
}

// perLayer lists the per-layer metrics in report order; BENCHMARK.json's
// per_layer mirrors it.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{"sqlparse.parse_bind_ms", "ms"},
		{"optimizer.normalize_ms", "ms"},
		{"optimizer.explore_ms", "ms"},
		{"optimizer.implement_ms", "ms"},
		{"optimizer.site_select_ms", "ms"},
		{"optimizer.memo_groups", "count"},
		{"optimizer.memo_exprs", "count"},
		{"optimizer.alloc_mb", "MB"},
		{"optimizer.plan_cache_hit_ratio", "ratio"},
		{"optimizer.compliant_over_traditional", "ratio"},
		{"policy.eta", "count"},
		{"policy.eval_calls", "count"},
		{"policy.eval_hit_ratio", "ratio"},
		{"executor.run_ms", "ms"},
		{"executor.cpu_ms", "ms"},
		{"executor.alloc_mb", "MB"},
		{"executor.rows_out", "count"},
		{"network.frames", "count"},
		{"network.encode_ms", "ms"},
		{"network.decode_ms", "ms"},
		{"network.ship_bytes", "B"},
		{"network.ship_cost_ms", "ms"},
		{"network.wire_sleep_ms", "ms"},
		{"sched.queue_wait_ms", "ms"},
		{"sched.service_ms", "ms"},
		{"sched.coalesced_ratio", "ratio"},
		{"sched.executed_ratio", "ratio"},
		{"rescache.hit_ratio", "ratio"},
		{"rescache.invalidated_data", "count"},
		{"rescache.invalidated_policy", "count"},
		{"rescache.rechecked", "count"},
		{"rescache.evictions", "count"},
		{"store.pool_hit_ratio", "ratio"},
		{"store.pool_misses", "count"},
		{"store.evictions", "count"},
		{"store.writebacks", "count"},
		{"store.disk_bytes_per_user_byte", "ratio"},
		{"store.wal_bytes_per_write", "B"},
		{"cluster.load_ms", "ms"},
		{"obs.audit_records_per_query", "count"},
		{"feedback.slowlog_lines", "count"},
	}
	for _, l := range selfLayers {
		defs = append(defs, layerDef{"self." + l + "_ms", "ms"})
	}
	defs = append(defs,
		layerDef{"trace.residual_ms", "ms"},
		layerDef{"trace.overhead_pct", "%"},
		layerDef{"trace.spans_per_request", "count"},
		layerDef{"share.optimizer_pct", "%"},
		layerDef{"share.executor_pct", "%"},
	)
	for _, q := range tpch.QueryNames() {
		for _, set := range workload.SetNames() {
			defs = append(defs,
				layerDef{paperName("fig6b", q, set), "ratio"},
				layerDef{paperName("fig7.eta", q, set), "count"})
		}
	}
	return defs
}()

// paperName names a Figure 6b / Figure 7 cell (metric names cannot
// carry '+', so CR+A is spelled CRA).
func paperName(fig, q string, set workload.SetName) string {
	return fmt.Sprintf("%s.%s.%s", fig, q, strings.ReplaceAll(string(set), "+", ""))
}
