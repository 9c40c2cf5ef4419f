package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/shard"
)

// TestWireGolden pins the exact bytes of every 2xx reply on one 2-D and
// one 3-D mesh: create, events, status, polygons, stats and list on both,
// single and batched route on the 2-D one. The steps run in order against
// one fresh service, so every counter in the stats replies is
// deterministic. A refactor of the handlers or of the coordinate codecs
// must leave this table untouched.
func TestWireGolden(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	ts := httptest.NewServer(newServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	steps := []struct {
		method, path, body string
		status             int
		want               string
	}{
		{http.MethodPost, "/v1/meshes", `{"name":"g2","width":8,"height":8}`, http.StatusCreated,
			`{"name":"g2","width":8,"height":8,"version":0,"requests":0,"events":0,"batches":0,"evictions":0,"rebuilds":0,"resident":true,"faults":0,"components":0,"queue_length":0,"route_queries":0,"route_cache_hits":0,"planner_builds":0}`},
		{http.MethodPost, "/v1/meshes/g2/events",
			`[{"op":"add","x":4,"y":4},{"op":"add","x":6,"y":4},{"op":"add","x":5,"y":5},{"op":"add","x":4,"y":4},{"op":"add","x":1,"y":6}]`,
			http.StatusOK, `{"version":4,"applied":4,"ignored":1,"faults":4,"components":2}`},
		{http.MethodGet, "/v1/meshes/g2/status?x=5&y=4", "", http.StatusOK,
			`{"x":5,"y":4,"class":"disabled","version":4}`},
		{http.MethodGet, "/v1/meshes/g2/status?x=0&y=0", "", http.StatusOK,
			`{"x":0,"y":0,"class":"safe","version":4}`},
		{http.MethodGet, "/v1/meshes/g2/polygons", "", http.StatusOK,
			`{"version":4,"polygons":[{"faults":[{"x":4,"y":4},{"x":6,"y":4},{"x":5,"y":5}],"polygon":[{"x":4,"y":4},{"x":5,"y":4},{"x":6,"y":4},{"x":5,"y":5}]},{"faults":[{"x":1,"y":6}],"polygon":[{"x":1,"y":6}]}]}`},
		{http.MethodPost, "/v1/meshes/g2/route", `{"src":{"x":0,"y":4},"dst":{"x":7,"y":4}}`, http.StatusOK,
			`{"version":4,"cache_hit":false,"src":{"x":0,"y":4},"dst":{"x":7,"y":4},"length":9,"abnormal_hops":1,"path":[{"x":0,"y":4},{"x":1,"y":4},{"x":2,"y":4},{"x":3,"y":4},{"x":3,"y":3},{"x":4,"y":3},{"x":5,"y":3},{"x":6,"y":3},{"x":7,"y":3},{"x":7,"y":4}]}`},
		{http.MethodPost, "/v1/meshes/g2/route",
			`{"pairs":[{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}},{"src":{"x":5,"y":4},"dst":{"x":0,"y":0}},{"src":{"x":0,"y":5},"dst":{"x":7,"y":5}}]}`,
			http.StatusOK, `{"version":4,"cache_hit":true,"routes":[{"length":14,"abnormal_hops":0},{"length":0,"abnormal_hops":0,"error":"routing: source or destination is disabled"},{"length":13,"abnormal_hops":3}]}`},
		{http.MethodGet, "/v1/meshes/g2/stats", "", http.StatusOK,
			`{"name":"g2","width":8,"height":8,"version":4,"requests":1,"events":5,"batches":1,"evictions":0,"rebuilds":0,"resident":true,"faults":4,"components":2,"queue_length":0,"route_queries":2,"route_cache_hits":1,"planner_builds":1,"disabled":5,"disabled_non_faulty":1,"unsafe":7,"mean_polygon_size":2.5}`},

		{http.MethodPost, "/v1/meshes", `{"name":"g3","width":5,"height":5,"depth":5}`, http.StatusCreated,
			`{"name":"g3","width":5,"height":5,"depth":5,"version":0,"requests":0,"events":0,"batches":0,"evictions":0,"rebuilds":0,"resident":true,"faults":0,"components":0,"queue_length":0,"route_queries":0,"route_cache_hits":0,"planner_builds":0}`},
		{http.MethodPost, "/v1/meshes/g3/events",
			`[{"op":"add","x":1,"y":1,"z":1},{"op":"add","x":2,"y":2,"z":2},{"op":"add","x":4,"y":0,"z":3},{"op":"clear","x":0,"y":0,"z":0}]`,
			http.StatusOK, `{"version":3,"applied":3,"ignored":1,"faults":3,"components":2}`},
		{http.MethodGet, "/v1/meshes/g3/status?x=1&y=1&z=1", "", http.StatusOK,
			`{"x":1,"y":1,"z":1,"class":"faulty","version":3}`},
		{http.MethodGet, "/v1/meshes/g3/status?x=2&y=1&z=1", "", http.StatusOK,
			`{"x":2,"y":1,"z":1,"class":"enabled","version":3}`},
		{http.MethodGet, "/v1/meshes/g3/polygons", "", http.StatusOK,
			`{"version":3,"polygons":[{"faults":[{"x":1,"y":1,"z":1},{"x":2,"y":2,"z":2}],"polygon":[{"x":1,"y":1,"z":1},{"x":2,"y":2,"z":2}]},{"faults":[{"x":4,"y":0,"z":3}],"polygon":[{"x":4,"y":0,"z":3}]}]}`},
		{http.MethodGet, "/v1/meshes/g3/stats", "", http.StatusOK,
			`{"name":"g3","width":5,"height":5,"depth":5,"version":3,"requests":1,"events":4,"batches":1,"evictions":0,"rebuilds":0,"resident":true,"faults":3,"components":2,"queue_length":0,"route_queries":0,"route_cache_hits":0,"planner_builds":0,"disabled":3,"disabled_non_faulty":0,"unsafe":9,"mean_polygon_size":1.5}`},

		{http.MethodGet, "/v1/meshes", "", http.StatusOK,
			`{"meshes":[{"name":"g2","width":8,"height":8,"version":4,"requests":1,"events":5,"batches":1,"evictions":0,"rebuilds":0,"resident":true,"faults":4,"components":2,"queue_length":0,"route_queries":2,"route_cache_hits":1,"planner_builds":1},{"name":"g3","width":5,"height":5,"depth":5,"version":3,"requests":1,"events":4,"batches":1,"evictions":0,"rebuilds":0,"resident":true,"faults":3,"components":2,"queue_length":0,"route_queries":0,"route_cache_hits":0,"planner_builds":0}]}`},
		{http.MethodDelete, "/v1/meshes/g3", "", http.StatusOK, `{"deleted":"g3"}`},
	}
	for i, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, bytes.NewReader([]byte(st.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != st.status {
			t.Fatalf("step %d %s %s: status %d, want %d (%s)", i, st.method, st.path, resp.StatusCode, st.status, got)
		}
		if string(got) != st.want+"\n" {
			t.Errorf("step %d %s %s:\n got %s want %s", i, st.method, st.path, got, st.want)
		}
	}
}
