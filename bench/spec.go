package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported number: the value as measured and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf[name]}
}

// metricDef names a metric and its unit. Exact marks a count taken from the
// program's own counters over a fixed op sequence: it must repeat bit for bit
// between two runs of one commit with one seed, and -check fails when it
// differs.
type metricDef struct {
	Name, Unit string
	Exact      bool
}

// Workload names, in suite order.
const (
	wUnifiedCold  = "unified_cold"
	wDenialRepair = "denial_repair_warm"
	wServeMix     = "serve_mix"
	wAppendClean  = "append_reclean"
	wClusterTheta = "cluster_theta"
)

var workloadNames = []string{wUnifiedCold, wDenialRepair, wServeMix, wAppendClean, wClusterTheta}

// endToEnd lists what a caller of the system feels, reported for every
// workload by the untraced run. fail_ratio is not here: the driver's result
// line carries attempted and failed, and a metric that is 0 at HEAD cannot
// hold a relative bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_ms.p50", Unit: "ms"},
	{Name: "op_ms.p90", Unit: "ms"},
	{Name: "throughput_ops_s", Unit: "ops/s"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "alloc_mb_per_op", Unit: "MB"},
	{Name: "resident_mb", Unit: "MB"},
}

// perLayer lists the single-layer numbers of the traced run (layer = module
// name). A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "lang.parse_us", Unit: "us"},
	{Name: "lang.desugar_us", Unit: "us"},
	{Name: "monoid.normalize_us", Unit: "us"},
	{Name: "monoid.rewrites", Unit: "count", Exact: true},
	{Name: "algebra.lower_us", Unit: "us"},
	{Name: "algebra.rewrite_us", Unit: "us"},
	{Name: "algebra.plan_nodes", Unit: "count", Exact: true},
	{Name: "core.prepare_us", Unit: "us"},
	{Name: "core.prepare_self_us", Unit: "us"},
	{Name: "cleandb.plan_cache_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "cleandb.view_delta_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "cleandb.append_ms", Unit: "ms"},
	{Name: "source.csv_scan_mb_s", Unit: "MB/s"},
	{Name: "source.colbin_scan_mb_s", Unit: "MB/s"},
	{Name: "source.scan_alloc_per_input_byte", Unit: "B/B"},
	{Name: "data.wire_roundtrip_mb_s", Unit: "MB/s"},
	{Name: "data.colbin_encode_mb_s", Unit: "MB/s"},
	{Name: "physical.exec_ms", Unit: "ms"},
	{Name: "physical.batches_evaluated", Unit: "count", Exact: true},
	{Name: "engine.theta_join_ms", Unit: "ms"},
	{Name: "engine.group_ms", Unit: "ms"},
	{Name: "engine.comparisons", Unit: "count", Exact: true},
	{Name: "engine.shuffled_records", Unit: "count", Exact: true},
	{Name: "engine.shuffled_mb", Unit: "MB", Exact: true},
	{Name: "engine.sim_ticks", Unit: "count", Exact: true},
	{Name: "engine.ns_per_simtick", Unit: "ns"},
	{Name: "cleaning.dccheck_ms", Unit: "ms"},
	{Name: "cleaning.repair_ms", Unit: "ms"},
	{Name: "cleaning.repair_iterations", Unit: "count", Exact: true},
	{Name: "cleaning.repair_remaining", Unit: "count", Exact: true},
	{Name: "cleaning.dedup_ms", Unit: "ms"},
	{Name: "cleaning.fd_ms", Unit: "ms"},
	{Name: "cluster.block_keys_ms", Unit: "ms"},
	{Name: "textsim.lev_ns_per_pair", Unit: "ns"},
	{Name: "textsim.sim_cache_hit_ratio", Unit: "ratio", Exact: true},
	{Name: "incr.delta_ms", Unit: "ms"},
	{Name: "incr.delta_vs_cold_comparisons", Unit: "ratio", Exact: true},
	{Name: "sink.csv_mb_s", Unit: "MB/s"},
	{Name: "sink.jsonl_mb_s", Unit: "MB/s"},
	{Name: "server.request_ms.p50", Unit: "ms"},
	{Name: "server.request_ms.p99", Unit: "ms"},
	{Name: "server.overhead_us", Unit: "us"},
	{Name: "server.rejected", Unit: "count", Exact: true},
	{Name: "server.bytes_out_mb_s", Unit: "MB/s"},
	{Name: "dist.session_ms", Unit: "ms"},
	{Name: "dist.vs_single_ratio", Unit: "ratio"},
	{Name: "dist.exec_slots_coord", Unit: "count", Exact: true},
	{Name: "dist.exec_slots_cluster", Unit: "count", Exact: true},
	{Name: "dist.cold_scan_ms", Unit: "ms"},
	{Name: "dist.loaded_bytes_per_node", Unit: "bytes", Exact: true},
	{Name: "dist.custody_rescans", Unit: "count", Exact: true},
	{Name: "process.peak_rss_mb", Unit: "MB"},
	{Name: "process.gc_cycles", Unit: "count"},
	{Name: "process.gc_pause_ms", Unit: "ms"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
	{Name: "trace.source_sink_share", Unit: "ratio"},
	{Name: "trace.frontend_share", Unit: "ratio"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// newMetrics returns a map holding every metric of defs at 0, so a workload
// that bypasses a layer still reports it.
func newMetrics(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkJSON reads BENCHMARK.json from the working directory or, when
// the program runs from inside bench/, from its parent.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var b benchmarkJSON
		if err := json.Unmarshal(buf, &b); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &b, nil
	}
	return nil, firstErr
}
