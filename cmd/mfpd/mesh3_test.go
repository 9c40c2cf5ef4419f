package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
	"repro/internal/shard"
)

// newHTTPServer serves an existing manager (newTestServer always seeds a
// 2-D mesh; the 3-D tests create their own meshes over the API).
func newHTTPServer(t *testing.T, mgr *shard.Manager) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts
}

// The 3-D end-to-end path: create a mesh with a depth, post a batched
// fault stream, and read polytopes, per-node status and stats — every
// reply cross-checked against a batch mfp3d.Build on the same fault set.
func TestMesh3DEndToEnd(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	ts := newHTTPServer(t, mgr)

	// Create with depth.
	resp := postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"cube","width":10,"height":10,"depth":10}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var created shard.Stats
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Width != 10 || created.Height != 10 || created.Depth != 10 {
		t.Fatalf("created dims %dx%dx%d, want 10x10x10", created.Width, created.Height, created.Depth)
	}

	// A diagonal fault chain — the polytope model's best case — plus a
	// duplicate add, batched through the events endpoint.
	m := grid3.New(10, 10, 10)
	faults := nodeset3.New(m)
	events := []engine3.Event{
		{Op: engine3.Add, Node: grid3.XYZ(3, 3, 3)},
		{Op: engine3.Add, Node: grid3.XYZ(4, 4, 4)},
		{Op: engine3.Add, Node: grid3.XYZ(5, 5, 5)},
		{Op: engine3.Add, Node: grid3.XYZ(3, 3, 3)},
	}
	engine3.Replay(faults, events...)
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/meshes/cube/events", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var evReply eventsReply
	if err := json.NewDecoder(resp.Body).Decode(&evReply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if evReply.Applied != 3 || evReply.Ignored != 1 || evReply.Faults != 3 || evReply.Components != 1 {
		t.Fatalf("events reply: %+v", evReply)
	}

	// Polytopes match the batch construction.
	ref := mfp3d.Build(m, faults)
	var polys polygonsReply[grid3.Coord]
	if resp := getJSON(t, ts.URL+"/v1/meshes/cube/polygons", &polys); resp.StatusCode != 200 {
		t.Fatalf("polygons: status %d", resp.StatusCode)
	}
	if len(polys.Polygons) != len(ref.Polytopes) {
		t.Fatalf("%d polytopes, want %d", len(polys.Polygons), len(ref.Polytopes))
	}
	for i, p := range polys.Polygons {
		if got := nodeset3.FromCoords(m, p.Polygon...); !got.Equal(ref.Polytopes[i]) {
			t.Fatalf("polytope %d: got %v, want %v", i, got, ref.Polytopes[i])
		}
	}

	// Status: a fault, a polytope fill, a cuboid-only node, a safe node.
	cases := []struct {
		x, y, z int
		want    string
	}{
		{3, 3, 3, "faulty"},
		{4, 4, 3, statusOf(ref, grid3.XYZ(4, 4, 3))},
		{3, 4, 4, statusOf(ref, grid3.XYZ(3, 4, 4))},
		{9, 9, 9, "safe"},
	}
	for _, tc := range cases {
		var st statusReply
		url := ts.URL + "/v1/meshes/cube/status?x=" + strconv.Itoa(tc.x) + "&y=" + strconv.Itoa(tc.y) + "&z=" + strconv.Itoa(tc.z)
		if resp := getJSON(t, url, &st); resp.StatusCode != 200 {
			t.Fatalf("status(%d,%d,%d): status %d", tc.x, tc.y, tc.z, resp.StatusCode)
		}
		if st.Class != tc.want {
			t.Fatalf("status(%d,%d,%d) = %q, want %q", tc.x, tc.y, tc.z, st.Class, tc.want)
		}
	}
	// A 2-D shaped status query (no z) fails cleanly.
	if resp := getJSON(t, ts.URL+"/v1/meshes/cube/status?x=1&y=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status without z: %d, want 400", resp.StatusCode)
	}

	// Stats carry the construction metrics of the snapshot.
	var st statsReply
	if resp := getJSON(t, ts.URL+"/v1/meshes/cube/stats", &st); resp.StatusCode != 200 {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if st.Depth != 10 || st.Faults != 3 || st.Components != 1 {
		t.Fatalf("stats: %+v", st.Stats)
	}
	if st.Disabled == nil || *st.Disabled != ref.DisabledPolytope.Len() {
		t.Fatalf("stats disabled = %v, want %d", st.Disabled, ref.DisabledPolytope.Len())
	}
	if st.Unsafe == nil || *st.Unsafe != ref.DisabledCuboid.Len() {
		t.Fatalf("stats unsafe = %v, want %d", st.Unsafe, ref.DisabledCuboid.Len())
	}

	// Route is 2-D only.
	resp = postJSON(t, ts.URL+"/v1/meshes/cube/route", []byte(`{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("route on 3-D mesh: %d, want 404", resp.StatusCode)
	}

	// And the 2-D typed accessor refuses the 3-D mesh.
	if _, err := mgr.Get("cube"); err == nil {
		t.Fatal("Get on a 3-D mesh should fail")
	}
}

// Events are validated per-topology in both directions: a 2-D event
// (missing z) posted to a 3-D mesh is rejected as malformed, not misread
// as z = 0, and a 3-D event (carrying z) posted to a 2-D mesh is rejected
// rather than projected onto the plane.
func TestMesh3DRejects2DEvents(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	ts := newHTTPServer(t, mgr)
	if _, err := mgr.Create3("cube", grid3.New(4, 4, 4)); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/meshes/cube/events", []byte(`[{"op":"add","x":1,"y":1}]`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2-D event on 3-D mesh: %d, want 400", resp.StatusCode)
	}
	if _, err := mgr.Create("flat", grid.New(4, 4)); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/meshes/flat/events", []byte(`[{"op":"add","x":1,"y":1,"z":2}]`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("3-D event on 2-D mesh: %d, want 400", resp.StatusCode)
	}
	// Out-of-mesh events fail validation with the usual 400.
	resp = postJSON(t, ts.URL+"/v1/meshes/cube/events", []byte(`[{"op":"add","x":1,"y":1,"z":9}]`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-mesh 3-D event: %d, want 400", resp.StatusCode)
	}
}

// Oversized 3-D create requests are rejected by the node-count bound even
// when every side is within maxMeshSide.
func TestMesh3DCreateBounds(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	ts := newHTTPServer(t, mgr)
	resp := postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"big","width":2048,"height":2048,"depth":2048}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized 3-D create: %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"neg","width":4,"height":4,"depth":-1}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative depth: %d, want 400", resp.StatusCode)
	}
}

// statusOf maps a batch mfp3d result onto the wire class names.
func statusOf(r *mfp3d.Result, c grid3.Coord) string {
	switch {
	case r.Faults.Has(c):
		return "faulty"
	case r.DisabledPolytope.Has(c):
		return "disabled"
	case r.DisabledCuboid.Has(c):
		return "enabled"
	default:
		return "safe"
	}
}
