// Command e2ebench is the repository's end-to-end benchmark. It launches
// the mfpd binary built from the tree under test, drives it over loopback
// HTTP from this one process with a single keep-alive connection in a
// closed loop, checks every run's answers against batch constructions, and
// prints one JSON result line. With -trace 1 it also replays the same
// request sequence in-process, rung by rung over the layers' public
// functions, and reports per-layer metrics instead of end-to-end ones.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload tenants-100 --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tenants-100, sparse-1000 or cube-64")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an in-process traced replay")
	bin := flag.String("mfpd", ".bench_build/mfpd", "mfpd binary under test")
	work := flag.String("work-dir", ".bench_build", "directory for the traced run's logs and trace output")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, bin, work string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("mfpd binary: %w", err)
	}
	// One closed-loop client needs one CPU. Limiting this process to one
	// keeps its runtime's helper threads (GC workers, spinning schedulers)
	// off the CPU the server runs on; the traced replay, which runs the
	// layers in this process, gets every CPU back.
	cpus := runtime.GOMAXPROCS(1)
	// Set-up runs several times; every server but the last is stopped
	// right after its set-up and the median is reported.
	var setups []float64
	var d *daemon
	for i := 0; i < w.setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = setUp(bin, w); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	c := newClient(d.base)
	res, p, layerCounts, err := measure(d, c, w, seed, time.Duration(seconds)*time.Second)
	c.close()
	d.stop()
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d requests in %.2fs, error ratio %.4f, setups %v\n",
		w.name, seed, res.Attempted, p.elapsed.Seconds(), p.tally.errorRatio(), setups)
	if traced {
		runtime.GOMAXPROCS(cpus)
		dir, err := os.MkdirTemp(work, "trace-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if res.Metrics, err = replay(w, p, res.Metrics, layerCounts, dir, work, seed); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setUp launches a server and brings it to the measured state: every mesh
// created, its population preloaded in one batch, and every 2-D mesh's
// first planner built. The returned duration runs from launch to ready.
func setUp(bin string, w *workload) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.base)
	defer c.close()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	for _, ms := range w.meshes {
		if status, body, _, err := c.do(http.MethodPost, "/v1/meshes", createBody(ms)); err != nil || status != http.StatusCreated {
			return fail(fmt.Errorf("create %s: status %d %s %v", ms.name, status, body, err))
		}
		status, body, _, err := c.do(http.MethodPost, meshPath(ms)+"/events", eventsBody(ms, true, ms.faults...))
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("preload %s: status %d %s %v", ms.name, status, body, err))
		}
		var r eventsReply
		if err := json.Unmarshal(body, &r); err != nil || r.Applied != len(ms.faults) || r.Faults != len(ms.faults) {
			return fail(fmt.Errorf("preload %s: reply %s, want %d faults", ms.name, body, len(ms.faults)))
		}
	}
	for _, ms := range w.meshes {
		if ms.d > 0 {
			continue
		}
		// Any answer builds the planner; corner to corner of the window.
		b := ms.win
		status, body, _, err := c.do(http.MethodPost, meshPath(ms)+"/route",
			routeBody(ms, ms.index(b.x0, b.y0, 0), ms.index(b.x0+b.w-1, b.y0+b.h-1, 0)))
		if err != nil || (status != http.StatusOK && status != http.StatusConflict && status != http.StatusUnprocessableEntity) {
			return fail(fmt.Errorf("first route on %s: status %d %s %v", ms.name, status, body, err))
		}
	}
	return d, time.Since(t0), nil
}

// measure runs the measured phase on a set-up server, then the output
// check, and returns the end-to-end metrics with the phase and the
// per-layer counter deltas scraped around it.
func measure(d *daemon, c *client, w *workload, seed uint64, dur time.Duration) (*result, *phase, counters, error) {
	before, err := scrape(c)
	if err != nil {
		return nil, nil, nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, nil, nil, err
	}
	seq := newSequence(w, seed)
	p := &phase{}
	p.run(c, w, seq, dur)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := scrape(c)
	if err != nil {
		return nil, nil, nil, err
	}

	res := &result{Attempted: p.tally.attempted, Failed: p.tally.failed, Metrics: map[string]metric{}}
	if p.tally.failed > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d requests failed; first: %s\n", p.tally.failed, p.tally.attempted, p.tally.firstFailure)
	}
	verr := verify(c, w, p, seq.pending)
	for _, m := range p.mismatches {
		fmt.Fprintln(os.Stderr, "e2ebench: mismatch:", m)
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: oracle:", verr)
	}
	// A failed request is never an answer: one makes the run incorrect.
	res.Correct = verr == nil && len(p.mismatches) == 0 && p.tally.failed == 0

	for _, m := range []struct {
		name string
		s    samples
		q    func(samples) (float64, error)
	}{
		{"add_p50_ms", p.lat[opAdd], samples.p50},
		{"add_p90_ms", p.lat[opAdd], samples.p90},
		{"clear_p50_ms", p.lat[opClear], samples.p50},
		{"clear_p90_ms", p.lat[opClear], samples.p90},
		{"status_p50_ms", p.lat[opStatus], samples.p50},
		{"polygons_p50_ms", p.lat[opPolygons], samples.p50},
		{"route_hit_p50_ms", p.routeHit, samples.p50},
		{"route_miss_p50_ms", p.routeMiss, samples.p50},
	} {
		v, err := m.q(m.s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s on %s: %w", m.name, w.name, err)
		}
		res.Metrics[m.name] = metric{v / 1e6, "ms"}
	}
	res.Metrics["throughput_rps"] = metric{float64(p.tally.answered()) / p.elapsed.Seconds(), "1/s"}
	res.Metrics["server_cpu_us_per_req"] = metric{float64(cpu1-cpu0) / 1e3 / float64(p.tally.attempted), "us"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	return res, p, delta(before, after), nil
}

func scrape(c *client) (counters, error) {
	status, body, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", status)
	}
	return parseMetrics(bytes.NewReader(body))
}
