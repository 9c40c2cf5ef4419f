package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/routing"
	"repro/internal/shard"
)

func postRoute(t *testing.T, ts *httptest.Server, mesh, body string) (*http.Response, []byte) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/meshes/"+mesh+"/route", []byte(body))
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouteSingle: a single query around a fault cluster returns the full
// path from the live snapshot, with the shard version stamped on it.
func TestRouteSingle(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	reply, _ := postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Add, Node: grid.XY(5, 5)},
		{Op: engine.Add, Node: grid.XY(6, 5)},
		{Op: engine.Add, Node: grid.XY(5, 6)},
	})

	resp, body := postRoute(t, ts, "m", `{"src":{"x":0,"y":5},"dst":{"x":15,"y":5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr routeReply
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != reply.Version {
		t.Fatalf("route version %d, want %d", rr.Version, reply.Version)
	}
	if rr.Length == 0 || len(rr.Path) != rr.Length+1 {
		t.Fatalf("inconsistent route: length %d, path %d nodes", rr.Length, len(rr.Path))
	}
	if rr.AbnormalHops == 0 {
		t.Fatal("route across the cluster must detour")
	}
	if first, last := rr.Path[0], rr.Path[len(rr.Path)-1]; first != grid.XY(0, 5) || last != grid.XY(15, 5) {
		t.Fatalf("path endpoints %v..%v", first, last)
	}
	if rr.CacheHit {
		t.Fatal("first query after churn cannot be a planner cache hit")
	}

	// The second query at the same version reuses the planner.
	resp, body = postRoute(t, ts, "m", `{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.CacheHit {
		t.Fatal("second query at the same version must hit the planner cache")
	}
}

// TestRouteBatchAndStats: a batched query returns per-pair outcomes in
// order, and the stats endpoint exposes the planner cache hit rate.
func TestRouteBatchAndStats(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Add, Node: grid.XY(8, 8)},
	})

	resp, body := postRoute(t, ts, "m",
		`{"pairs":[
			{"src":{"x":0,"y":8},"dst":{"x":15,"y":8}},
			{"src":{"x":8,"y":8},"dst":{"x":0,"y":0}},
			{"src":{"x":0,"y":0},"dst":{"x":2,"y":0}}
		]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchRouteReply
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Routes) != 3 {
		t.Fatalf("%d results, want 3", len(br.Routes))
	}
	if br.Routes[0].Error != "" || br.Routes[0].Length == 0 {
		t.Fatalf("deliverable pair failed: %+v", br.Routes[0])
	}
	if !strings.Contains(br.Routes[1].Error, "disabled") {
		t.Fatalf("blocked-source pair must carry the error, got %+v", br.Routes[1])
	}
	if br.Routes[2].Error != "" || br.Routes[2].Length != 2 {
		t.Fatalf("short pair: %+v", br.Routes[2])
	}

	// Another batch at the same version hits the cache; stats show it.
	postRoute(t, ts, "m", `{"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}]}`)
	sresp, err := http.Get(ts.URL + "/v1/meshes/m/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RouteQueries != 2 || st.RouteCacheHits != 1 || st.PlannerBuilds != 1 {
		t.Fatalf("route stats %d/%d/%d, want 2 queries, 1 hit, 1 build",
			st.RouteQueries, st.RouteCacheHits, st.PlannerBuilds)
	}
}

// TestRouteErrorStatuses: each routing failure surfaces with its own HTTP
// status and a descriptive body.
func TestRouteErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})

	t.Run("blocked endpoint is 409", func(t *testing.T) {
		postEvents(t, ts, "m", []engine.Event{{Op: engine.Add, Node: grid.XY(4, 4)}})
		resp, body := postRoute(t, ts, "m", `{"src":{"x":4,"y":4},"dst":{"x":0,"y":0}}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "disabled") {
			t.Fatalf("unhelpful body %s", body)
		}
	})

	t.Run("border region is 422", func(t *testing.T) {
		// A wall touching the south border: the detour would need the
		// virtual halo outside the mesh.
		var wall []engine.Event
		for y := 0; y < 6; y++ {
			wall = append(wall, engine.Event{Op: engine.Add, Node: grid.XY(8, y)})
		}
		postEvents(t, ts, "m", wall)
		resp, body := postRoute(t, ts, "m", `{"src":{"x":2,"y":2},"dst":{"x":14,"y":2}}`)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "boundary outside the mesh") {
			t.Fatalf("unhelpful body %s", body)
		}
	})

	t.Run("off-mesh endpoint is 400", func(t *testing.T) {
		resp, body := postRoute(t, ts, "m", `{"src":{"x":-1,"y":0},"dst":{"x":3,"y":3}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})

	t.Run("hop budget maps to 422", func(t *testing.T) {
		// MFP polygons are convex, so a live mesh cannot livelock the
		// router; the mapping is still pinned so a budget failure from a
		// future construction bug degrades into a clean 422.
		if got, code := routeStatus(routing.ErrHopBudget); got != http.StatusUnprocessableEntity || code != codeUndeliverable {
			t.Fatalf("ErrHopBudget -> %d %s, want 422 undeliverable", got, code)
		}
		if got, code := routeStatus(fmt.Errorf("wrapped: %w", routing.ErrHopBudget)); got != http.StatusUnprocessableEntity || code != codeUndeliverable {
			t.Fatalf("wrapped ErrHopBudget -> %d %s, want 422 undeliverable", got, code)
		}
		if got, code := routeStatus(errors.New("anything else")); got != http.StatusBadRequest || code != codeBadRequest {
			t.Fatalf("unknown error -> %d %s, want 400 bad_request", got, code)
		}
	})
}

// TestRouteWorkerBudget: the server-wide batch-routing budget hands out
// between 1 and capacity tokens, blocking only for the first, and
// releasing restores the budget.
func TestRouteWorkerBudget(t *testing.T) {
	s := newServer(shard.NewManager(shard.Config{}))
	capTotal := cap(s.routeSem)
	got := s.acquireRouteWorkers(capTotal + 5)
	if got != capTotal {
		t.Fatalf("idle budget handed out %d workers, want the full %d", got, capTotal)
	}
	// Budget exhausted: a second batch still gets one worker once a token
	// frees, never zero, never more than remain.
	s.releaseRouteWorkers(1)
	if got := s.acquireRouteWorkers(capTotal); got != 1 {
		t.Fatalf("contended budget handed out %d workers, want 1", got)
	}
	s.releaseRouteWorkers(capTotal)
	if got := s.acquireRouteWorkers(1); got != 1 {
		t.Fatalf("restored budget handed out %d workers, want 1", got)
	}
	s.releaseRouteWorkers(1)
}

// TestRouteConcurrentBatches: concurrent batched queries all complete
// under the shared worker budget.
func TestRouteConcurrentBatches(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	postEvents(t, ts, "m", []engine.Event{{Op: engine.Add, Node: grid.XY(8, 8)}})
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"src":{"x":%d,"y":0},"dst":{"x":%d,"y":15}}`, i%16, (i+7)%16)
	}
	body.WriteString(`]}`)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/meshes/m/route", []byte(body.String()))
			defer resp.Body.Close()
			var br batchRouteReply
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || len(br.Routes) != 64 {
				errs <- fmt.Errorf("status %d, %d routes", resp.StatusCode, len(br.Routes))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRouteBadRequests: malformed shapes are rejected before any routing.
func TestRouteBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both forms", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1},"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}]}`, http.StatusBadRequest},
		{"src only", `{"src":{"x":0,"y":0}}`, http.StatusBadRequest},
		{"garbage", `not json`, http.StatusBadRequest},
		{"trailing data", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}} extra`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRoute(t, ts, "m", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}

	t.Run("oversized batch", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		for i := 0; i <= maxRoutePairs; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`)
		}
		sb.WriteString(`]}`)
		resp, _ := postRoute(t, ts, "m", sb.String())
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/meshes/m/route")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /route: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("failed shard maps to 500", func(t *testing.T) {
		// A shard that latched an internal failure (engine divergence,
		// failing rebuild) is a server-side fault, never a bad request.
		// The latch is unreachable through the public API by design, so
		// the mapping is pinned on the writer directly.
		rec := httptest.NewRecorder()
		writeShardError(rec, fmt.Errorf("read: %w", shard.ErrShardFailed))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("ErrShardFailed -> %d, want 500", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "mesh failed") {
			t.Fatalf("unhelpful body %s", rec.Body.String())
		}
	})

	t.Run("unknown mesh", func(t *testing.T) {
		resp, _ := postRoute(t, ts, "nope", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
}
