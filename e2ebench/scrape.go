package main

// Per-layer counts come from the /metrics exposition, as deltas: mfpd's,
// scraped just before and just after the measured phase so that set-up
// work (creates, preload, first planner builds) stays out of them, and,
// for the WAL, this process's own around the traced run's durable pass.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// counters maps a sample's full series name, labels included exactly as
// exposed (e.g. `engine_closures_total{dim="2"}`), to its value.
type counters map[string]float64

// parseMetrics reads the Prometheus text exposition: comment lines are
// skipped and every sample line is "<series> <value>".
func parseMetrics(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after−before per series; a series absent before counts
// from zero (label sets appear on first use).
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a per-layer ratio reported with its base counts.
type ratio struct {
	name      string // metric name of the ratio
	num, den  string // series names (see counters.get)
	numName   string // metric names the base counts are reported under
	denName   string
	numerator float64
	denom     float64
}

// value is num/den, or 0 when the denominator counted nothing (the
// layer did no work of that kind in this workload; the zero base count
// reported beside it says so).
func (r ratio) value() float64 {
	if r.denom == 0 {
		return 0
	}
	return r.numerator / r.denom
}

// layerRatios derives the per-layer ratios from one run's counter deltas.
// dim is the kernel dimension label of the workload's primary mesh.
func layerRatios(d counters, dim string) ratios {
	eng := func(family string) string { return family + `{dim="` + dim + `"}` }
	const dim3 = `{dim="3"}`
	defs := ratios{
		{name: "shard.coalesce_factor", num: "shard_requests_total", den: "shard_batches_total",
			numName: "shard.requests", denName: "shard.batches"},
		{name: "shard.planner_hit_ratio", num: "shard_planner_cache_hits_total", den: "shard_route_queries_total",
			numName: "shard.planner_cache_hits", denName: "shard.route_queries"},
		{name: "engine.closures_per_event", num: eng("engine_closures_total"), den: eng("engine_events_applied_total"),
			numName: "engine.closures", denName: "engine.events_applied"},
		{name: "engine.closure_passes_per_closure", num: eng("engine_closure_passes_total"), den: eng("engine_closures_total"),
			numName: "engine.closure_passes", denName: "engine.closures"},
		{name: "engine.components_touched_per_event", num: eng("engine_components_touched_total"), den: eng("engine_events_applied_total"),
			numName: "engine.components_touched", denName: "engine.events_applied"},
		{name: "engine3.unsafe_delta_rows_per_event", num: "engine_unsafe_delta_rows_total" + dim3, den: "engine_events_applied_total" + dim3,
			numName: "engine3.unsafe_delta_rows", denName: "engine3.events_applied"},
		{name: "engine3.unsafe_rebuild_rows_per_event", num: "engine_unsafe_rebuild_rows_total" + dim3, den: "engine_events_applied_total" + dim3,
			numName: "engine3.unsafe_rebuild_rows", denName: "engine3.events_applied"},
		{name: "routing.ok_ratio", num: `routing_routes_total{outcome="ok"}`, den: "routing_routes_total{",
			numName: "routing.routes_ok", denName: "routing.routes"},
	}
	return defs.from(d)
}

// walRatios derives the WAL ratios from the counter deltas of the traced
// run's durable pass.
func walRatios(d counters) ratios {
	return ratios{
		{name: "wal.bytes_per_event", num: "wal_bytes_total", den: "shard_events_applied_total",
			numName: "wal.bytes", denName: "wal.events"},
		{name: "wal.fsyncs_per_req", num: "wal_fsyncs_total", den: "shard_requests_total",
			numName: "wal.fsyncs", denName: "wal.requests"},
	}.from(d)
}

type ratios []ratio

// from fills in the base counts from d.
func (rs ratios) from(d counters) ratios {
	for i := range rs {
		rs[i].numerator, rs[i].denom = d.get(rs[i].num), d.get(rs[i].den)
	}
	return rs
}

// get returns one series' value; a name ending in "{" sums every labelled
// series of that family.
func (c counters) get(series string) float64 {
	if !strings.HasSuffix(series, "{") {
		return c[series]
	}
	var s float64
	for k, v := range c {
		if strings.HasPrefix(k, series) {
			s += v
		}
	}
	return s
}
