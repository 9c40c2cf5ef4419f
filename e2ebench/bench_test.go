package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// fingerprint serializes everything a workload sends for a seed: every
// mesh's population and the first n requests.
func fingerprint(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, ms := range w.meshes {
		fmt.Fprintf(&b, "%s %dx%dx%d %v\n", ms.name, ms.w, ms.h, ms.d, ms.faults)
	}
	seq := newSequence(w, seed)
	for i := 0; i < n; i++ {
		o := seq.next()
		method, path, body := request(w, o)
		fmt.Fprintf(&b, "%s %s %s\n", method, path, body)
	}
	return b.Bytes()
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := fingerprint(t, name, 7, 3000), fingerprint(t, name, 7, 3000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if c := fingerprint(t, name, 8, 3000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

func TestClusteredGeneratorStaysInsideMargin(t *testing.T) {
	win := box{0, 0, 0, 300, 300, 1}
	a := clustered(win, 900, 2, 1)
	if len(a) != 900 {
		t.Fatalf("%d faults, want 900", len(a))
	}
	seen := map[[3]int]bool{}
	for _, c := range a {
		if c[0] < 2 || c[1] < 2 || c[0] >= 298 || c[1] >= 298 || c[2] != 0 {
			t.Fatalf("fault %v outside the margin-2 window", c)
		}
		if seen[c] {
			t.Fatalf("fault %v drawn twice", c)
		}
		seen[c] = true
	}
	if b := clustered(win, 900, 2, 2); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("seeds 1 and 2 draw the same faults")
	}
}

// TestWritesKeepPopulationStationary pins the request model: every add
// lands on a healthy node and is followed by its clear, so a mesh holds
// its base population or one more.
func TestWritesKeepPopulationStationary(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 3)
		seq := newSequence(w, 3)
		for i := 0; i < 5000; i++ {
			o := seq.next()
			base := len(w.meshes[o.mesh].faults)
			switch o.kind {
			case opAdd, opPlaneAdd:
				if seq.faulty[o.mesh][o.node] || o.faults != base+1 {
					t.Fatalf("%s: add %+v on a faulty node or with a wrong count", name, o)
				}
			case opClear, opPlaneClear:
				if o.pending != o.node || o.faults != base {
					t.Fatalf("%s: clear %+v is not of the pending add", name, o)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s does not match %v", d.unit, d.name, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if strings.Join(ws, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", ws, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestPercentiles(t *testing.T) {
	var s samples
	for i := 99; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if _, err := s.p90(); err == nil {
		t.Fatal("p90 accepted 99 samples")
	}
	if v, err := s.p50(); err != nil || v != 50 {
		t.Fatalf("p50 of 1..99 = %v, %v; want 50", v, err)
	}
	s = append(s, 100)
	if v, err := s.p90(); err != nil || math.Abs(v-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1", v, err)
	}
	if _, err := (samples{}).p50(); err == nil {
		t.Fatal("p50 of no samples accepted")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if !tl.note("status", 200, nil, 200) {
		t.Fatal("200 on status not an answer")
	}
	if !tl.note("route", 409, nil, 200, 409, 422) {
		t.Fatal("409 on route not an answer")
	}
	if tl.note("add", 0, errors.New("connection reset"), 200) {
		t.Fatal("transport error counted as an answer")
	}
	if tl.note("status", 500, nil, 200) {
		t.Fatal("500 on status counted as an answer")
	}
	if tl.note("add", 409, nil, 200) {
		t.Fatal("409 on add counted as an answer")
	}
	if tl.attempted != 5 || tl.failed != 3 || tl.answered() != 2 || tl.errorRatio() != 0.6 {
		t.Fatalf("attempted %d failed %d answered %d ratio %v; want 5, 3, 2, 0.6", tl.attempted, tl.failed, tl.answered(), tl.errorRatio())
	}
	if !strings.Contains(tl.firstFailure, "connection reset") {
		t.Fatalf("first failure %q", tl.firstFailure)
	}
}

func TestScrapeRatios(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# HELP wal_bytes_total x
# TYPE wal_bytes_total counter
wal_bytes_total 100
shard_events_applied_total 10
shard_requests_total 10
shard_batches_total 10
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`wal_bytes_total 700
shard_events_applied_total 20
shard_requests_total 30
shard_batches_total 20
routing_routes_total{outcome="ok"} 3
routing_routes_total{outcome="blocked_endpoint"} 1
`))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]ratio{}
	d := delta(before, after)
	for _, r := range append(layerRatios(d, "2"), walRatios(d)...) {
		got[r.name] = r
	}
	for name, want := range map[string][3]float64{
		"wal.bytes_per_event":                 {60, 600, 10},
		"shard.coalesce_factor":               {2, 20, 10},
		"routing.ok_ratio":                    {0.75, 3, 4},
		"engine3.unsafe_delta_rows_per_event": {0, 0, 0},
	} {
		r := got[name]
		if r.value() != want[0] || r.numerator != want[1] || r.denom != want[2] {
			t.Errorf("%s = %v (%v/%v), want %v (%v/%v)", name, r.value(), r.numerator, r.denom, want[0], want[1], want[2])
		}
	}
}
