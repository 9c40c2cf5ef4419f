package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/shard"
)

// TestMetricsEndpoint drives traffic through the full middleware-wrapped
// handler and checks that GET /metrics serves Prometheus text covering
// every instrumented layer: engine, shard, routing and HTTP. The registry
// is process-global and other tests in this package also drive traffic,
// so counters are asserted as deltas, not absolute values (no test here
// calls t.Parallel, so the deltas are exact).
func TestMetricsEndpoint(t *testing.T) {
	counter := func(name string, labels ...string) float64 {
		v, _ := obs.Default.Value(name, labels...)
		return v
	}
	watched := []struct {
		name   string
		labels []string
		delta  float64
	}{
		{"engine_events_applied_total", []string{"2"}, 3},
		{"shard_batches_total", nil, 1},
		{"routing_routes_total", []string{"ok"}, 1},
		{"mfpd_http_requests_total", []string{"/v1/meshes/{name}/events", "2xx"}, 1},
		{"mfpd_http_request_seconds", []string{"/v1/meshes/{name}/route"}, 1}, // histogram: Value is its count
	}
	before := make([]float64, len(watched))
	for i, w := range watched {
		before[i] = counter(w.name, w.labels...)
	}

	mgr := shard.NewManager(shard.Config{})
	if _, err := mgr.Create("m", grid.New(16, 16)); err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	ts := httptest.NewServer(newHandler(mgr, logger))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	if _, resp := postEvents(t, ts, "m", faultCluster()); resp.StatusCode != 200 {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/meshes/m/route",
		[]byte(`{"src":{"x":0,"y":0},"dst":{"x":15,"y":15}}`))
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("route: %d", resp.StatusCode)
	}

	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(scrape.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// The scrape must expose one family per instrumented layer in valid
	// exposition format (values are asserted as deltas below).
	for _, want := range []string{
		"# TYPE engine_events_applied_total counter",
		`engine_events_applied_total{dim="2"}`,
		"# TYPE shard_batches_total counter",
		`routing_routes_total{outcome="ok"}`,
		`mfpd_http_requests_total{route="/v1/meshes/{name}/events",code="2xx"}`,
		`mfpd_http_request_seconds_bucket{route="/v1/meshes/{name}/route",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}

	for i, w := range watched {
		if got := counter(w.name, w.labels...) - before[i]; got != w.delta {
			t.Errorf("%s%v delta = %g, want %g", w.name, w.labels, got, w.delta)
		}
	}

	log := logBuf.String()
	for _, want := range []string{"route=/v1/meshes/{name}/events", "mesh=m", "request_id=r"} {
		if !strings.Contains(log, want) {
			t.Errorf("request log missing %q in:\n%s", want, log)
		}
	}
}

// faultCluster is a small event batch that produces one faulty component.
func faultCluster() []engine.Event {
	return []engine.Event{
		{Op: engine.Add, Node: grid.XY(5, 5)},
		{Op: engine.Add, Node: grid.XY(5, 6)},
		{Op: engine.Add, Node: grid.XY(6, 5)},
	}
}

// TestRoutePatternBoundsCardinality checks that arbitrary paths collapse
// into the fixed route-pattern vocabulary.
func TestRoutePatternBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/healthz": "/healthz",
		"/metrics": "/metrics",
		// The retired unversioned alias is an unknown path like any other.
		"/meshes":                   "other",
		"/meshes/a/events":          "other",
		"/totally/made/up":          "other",
		"/":                         "other",
		"/v1/meshes":                "/v1/meshes",
		"/v1/meshes/":               "/v1/meshes",
		"/v1/meshes/a":              "/v1/meshes/{name}",
		"/v1/meshes/a/events":       "/v1/meshes/{name}/events",
		"/v1/meshes/a/route":        "/v1/meshes/{name}/route",
		"/v1/meshes/a/stats":        "/v1/meshes/{name}/stats",
		"/v1/meshes/a/bogus":        "other",
		"/v1/meshes/a/events/extra": "other",
		// /healthz and /metrics are infrastructure endpoints, not part of
		// the versioned surface: under /v1 they are unknown paths.
		"/v1/healthz": "other",
		"/v1/metrics": "other",
		"/v1":         "other",
		"/v1/":        "other",
		// A path merely starting with "v1" is not versioned traffic.
		"/v1beta/meshes": "other",
	}
	for path, want := range cases {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if got := routeInfo(r).Route; got != want {
			t.Errorf("routeInfo(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMetricsDocumented is the docs-parity guard: every family the process
// registers must appear in docs/METRICS.md, and every family the doc lists
// must exist. Families register at package init / handler construction, so
// a fresh process already exposes the full surface.
func TestMetricsDocumented(t *testing.T) {
	// Touching the handler constructor guarantees the mfpd_http_* families
	// are registered even if this test runs alone.
	_ = httpMetrics

	registered := obs.Default.FamilyNames()
	documented, err := metricsDocNames("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	docSet := make(map[string]bool, len(documented))
	for _, name := range documented {
		if docSet[name] {
			t.Errorf("docs/METRICS.md lists %s twice", name)
		}
		docSet[name] = true
	}
	regSet := make(map[string]bool, len(registered))
	for _, name := range registered {
		regSet[name] = true
		if !docSet[name] {
			t.Errorf("metric %s is exported but missing from docs/METRICS.md", name)
		}
	}
	for _, name := range documented {
		if !regSet[name] {
			t.Errorf("docs/METRICS.md documents %s, which the process does not export", name)
		}
	}
}

// metricsDocNames extracts metric names from docs/METRICS.md table rows of
// the form "| `name` | counter ... |".
func metricsDocNames(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		rest := strings.TrimPrefix(line, "| `")
		name, after, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		after = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(after), "|"))
		kind, _, _ := strings.Cut(after, " ")
		switch strings.TrimSpace(kind) {
		case "counter", "gauge", "histogram":
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no metric table rows found in %s", path)
	}
	return names, nil
}
