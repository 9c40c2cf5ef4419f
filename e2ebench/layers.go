package main

// Metric names and the per-layer metrics of the traced run.

import (
	"fmt"
	"math"
	"time"
)

// endToEnd are the metrics of an untraced run, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"add_p50_ms", "ms"},
	{"add_p90_ms", "ms"},
	{"clear_p50_ms", "ms"},
	{"clear_p90_ms", "ms"},
	{"status_p50_ms", "ms"},
	{"polygons_p50_ms", "ms"},
	{"route_hit_p50_ms", "ms"},
	{"route_miss_p50_ms", "ms"},
	{"server_cpu_us_per_req", "us"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, with their units. Ratios come
// with the base counts they divide (see layerRatios).
var perLayer = []metricDef{
	{"mfpd.http_self_p50_us", "us"},
	{"mfpd.http_self_status_p50_us", "us"},
	{"engine.decode_p50_us", "us"},
	{"engine.apply_add_p50_us", "us"},
	{"engine.apply_clear_p50_us", "us"},
	{"engine.closures_per_event", "ratio"},
	{"engine.closure_passes_per_closure", "ratio"},
	{"engine.components_touched_per_event", "ratio"},
	{"engine.closures", "count"},
	{"engine.closure_passes", "count"},
	{"engine.components_touched", "count"},
	{"engine.events_applied", "count"},
	{"engine3.unsafe_delta_rows_per_event", "ratio"},
	{"engine3.unsafe_rebuild_rows_per_event", "ratio"},
	{"engine3.unsafe_delta_rows", "count"},
	{"engine3.unsafe_rebuild_rows", "count"},
	{"engine3.events_applied", "count"},
	{"shard.apply_p50_us", "us"},
	{"shard.apply_wal_p50_us", "us"},
	{"shard.self_p50_us", "us"},
	{"shard.read_p50_ns", "ns"},
	{"shard.coalesce_factor", "ratio"},
	{"shard.planner_hit_ratio", "ratio"},
	{"shard.requests", "count"},
	{"shard.batches", "count"},
	{"shard.planner_cache_hits", "count"},
	{"shard.route_queries", "count"},
	{"wal.append_p50_us", "us"},
	{"wal.bytes_per_event", "ratio"},
	{"wal.fsyncs_per_req", "ratio"},
	{"wal.compactions", "count"},
	{"wal.bytes", "count"},
	{"wal.fsyncs", "count"},
	{"wal.events", "count"},
	{"wal.requests", "count"},
	{"routing.planner_build_p50_ms", "ms"},
	{"routing.route_p50_us", "us"},
	{"routing.regions", "count"},
	{"routing.ok_ratio", "ratio"},
	{"routing.routes_ok", "count"},
	{"routing.routes", "count"},
	{"trace.span_overhead_ns", "ns"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("no metric " + name)
}

// spanOverhead measures what recording one span costs.
func spanOverhead() float64 {
	const n = 100000
	t := newTracer(1)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.done(0, lDecode, t.now())
	}
	return float64(time.Since(start)) / n
}

// layerMetrics derives the per-layer metrics from a finished trace.
func layerMetrics(w *workload, p *phase, t *tracer, e2e map[string]metric, counts, walCounts counters) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, unitOf(perLayer, name)} }

	// rung collects layer l's durations over requests of the given kinds;
	// combine, when set, maps a request to a derived duration instead.
	rung := func(kinds []opKind, combine func(i int) float64) samples {
		var s samples
		for i, o := range p.ops {
			for _, k := range kinds {
				if o.kind == k {
					if v := combine(i); !math.IsNaN(v) {
						s = append(s, v)
					}
				}
			}
		}
		return s
	}
	on := func(l layer) func(int) float64 { return func(i int) float64 { return t.dur[l][i] } }
	writes, adds := []opKind{opAdd, opClear}, []opKind{opAdd}
	type q struct {
		name  string
		s     samples
		scale float64 // ns per reported unit
	}
	qs := []q{
		{"engine.decode_p50_us", rung(writes, on(lDecode)), 1e3},
		{"engine.apply_add_p50_us", rung(adds, on(lEngineApply)), 1e3},
		{"engine.apply_clear_p50_us", rung([]opKind{opClear}, on(lEngineApply)), 1e3},
		{"wal.append_p50_us", rung(writes, on(lWALAppend)), 1e3},
		// The shard rungs are taken over adds only: a median over adds and
		// clears lands between their two modes, and an add's engine work is
		// small enough that the shard's own cost is not lost in its noise.
		{"shard.apply_p50_us", rung(adds, on(lShardApply)), 1e3},
		{"shard.apply_wal_p50_us", rung(adds, on(lShardApplyWAL)), 1e3},
		{"shard.self_p50_us", rung(adds, func(i int) float64 { return t.dur[lShardApply][i] - t.dur[lEngineApply][i] }), 1e3},
		{"shard.read_p50_ns", rung([]opKind{opStatus}, on(lShardRead)), 1},
		{"routing.planner_build_p50_ms", rung([]opKind{opRoute}, on(lPlannerBuild)), 1e6},
		{"routing.route_p50_us", rung([]opKind{opRoute}, on(lRoute)), 1e3},
	}
	for _, q := range qs {
		v, err := q.s.p50()
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", q.name, w.name, err)
		}
		set(q.name, v/q.scale)
	}

	// The residual above the in-process rungs: HTTP/JSON time plus
	// tracing overhead.
	ladder, err := rung(adds, func(i int) float64 { return t.dur[lDecode][i] + t.dur[lShardApply][i] }).p50()
	if err != nil {
		return nil, err
	}
	set("mfpd.http_self_p50_us", e2e["add_p50_ms"].Value*1e3-ladder/1e3)
	read, err := rung([]opKind{opStatus}, on(lShardRead)).p50()
	if err != nil {
		return nil, err
	}
	set("mfpd.http_self_status_p50_us", e2e["status_p50_ms"].Value*1e3-read/1e3)

	regions, err := samples(t.regions).p50()
	if err != nil {
		return nil, fmt.Errorf("routing.regions on %s: %w", w.name, err)
	}
	set("routing.regions", regions)
	set("trace.span_overhead_ns", spanOverhead())
	set("trace.spans", float64(len(t.spans)))

	dim := "2"
	if w.meshes[0].d > 0 {
		dim = "3"
	}
	for _, r := range append(layerRatios(counts, dim), walRatios(walCounts)...) {
		set(r.name, r.value())
		set(r.numName, r.numerator)
		set(r.denName, r.denom)
	}
	set("wal.compactions", walCounts["wal_compact_seconds_count"])
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.name)
		}
	}
	return out, nil
}
