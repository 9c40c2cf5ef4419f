package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/shard"
)

// TestV1Endpoints drives every documented endpoint through its /v1 path.
// No response carries a Deprecation header: /v1 is the only API surface.
func TestV1Endpoints(t *testing.T) {
	ts, _ := newTestServer(t, 12, shard.Config{})

	check := func(resp *http.Response, what string, want int) {
		t.Helper()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", what, resp.StatusCode, want)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("%s: response carries a Deprecation header", what)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"t","width":8,"height":8}`))
	resp.Body.Close()
	check(resp, "create", http.StatusCreated)

	body, _ := json.Marshal([]engine.Event{{Op: engine.Add, Node: grid.XY(2, 2)}})
	resp = postJSON(t, ts.URL+"/v1/meshes/t/events", body)
	resp.Body.Close()
	check(resp, "events", http.StatusOK)

	for _, path := range []string{
		"/v1/meshes",
		"/v1/meshes/t/status?x=2&y=2",
		"/v1/meshes/t/polygons",
		"/v1/meshes/t/stats",
	} {
		resp := getJSON(t, ts.URL+path, nil)
		check(resp, path, http.StatusOK)
	}

	resp = postJSON(t, ts.URL+"/v1/meshes/t/route", []byte(`{"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`))
	resp.Body.Close()
	check(resp, "route", http.StatusOK)

	resp = doDelete(t, ts.URL+"/v1/meshes/t")
	check(resp, "delete", http.StatusOK)
}

// TestUnversionedAliasRetired: the pre-versioning /meshes... paths are
// gone. They answer 404 not_found like any unknown path, with no
// Deprecation header, even for a mesh that exists.
func TestUnversionedAliasRetired(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{})
	for _, path := range []string{"/meshes", "/meshes/m/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var reply errorReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body is not the envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusNotFound || reply.Error.Code != codeNotFound {
			t.Errorf("%s: %d %q, want 404 %q", path, resp.StatusCode, reply.Error.Code, codeNotFound)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s: retired alias still carries a Deprecation header", path)
		}
	}
}

// TestErrorEnvelope: every error path answers with the uniform
// {"error":{"code":"...","message":"..."}} envelope and the right code.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{MaxMeshes: 1})

	envelope := func(resp *http.Response) errorReply {
		t.Helper()
		defer resp.Body.Close()
		var reply errorReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("error body is not the envelope: %v", err)
		}
		if reply.Error.Code == "" || reply.Error.Message == "" {
			t.Fatalf("envelope missing code or message: %+v", reply)
		}
		return reply
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name   string
		resp   *http.Response
		status int
		code   string
	}{
		{"unknown path", get("/v1/nope"), http.StatusNotFound, "not_found"},
		{"v1 root", get("/v1"), http.StatusNotFound, "not_found"},
		{"unknown mesh", get("/v1/meshes/nope/stats"), http.StatusNotFound, "unknown_mesh"},
		{"unknown sub-resource", get("/v1/meshes/m/nope"), http.StatusNotFound, "not_found"},
		{"bad method", get("/v1/meshes/m/events"), http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad create", postJSON(t, ts.URL+"/v1/meshes", []byte(`not json`)), http.StatusBadRequest, "bad_request"},
		{"duplicate mesh", postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"m","width":4,"height":4}`)), http.StatusConflict, "mesh_exists"},
		{"mesh cap", postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"x","width":4,"height":4}`)), http.StatusTooManyRequests, "too_many_meshes"},
		{"bad status query", get("/v1/meshes/m/status?x=nope&y=1"), http.StatusBadRequest, "bad_request"},
		{"bad route body", postJSON(t, ts.URL+"/v1/meshes/m/route", []byte(`{}`)), http.StatusBadRequest, "bad_request"},
		{"retired alias", get("/meshes/m/stats"), http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		if tc.resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.status)
		}
		if reply := envelope(tc.resp); reply.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, reply.Error.Code, tc.code)
		}
	}

	// Blocked endpoints map to their own code so routing clients can
	// distinguish "heals when faults clear" from a malformed query.
	if _, resp := postEvents(t, ts, "m", faultCluster()); resp.StatusCode != 200 {
		t.Fatalf("seed events: %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/meshes/m/route", []byte(`{"src":{"x":5,"y":5},"dst":{"x":0,"y":0}}`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("blocked endpoint: status %d", resp.StatusCode)
	}
	if reply := envelope(resp); reply.Error.Code != "blocked_endpoint" {
		t.Fatalf("blocked endpoint: code %q", reply.Error.Code)
	}
}

// TestDaemonRecovery is the HTTP-level durability roundtrip: events
// acknowledged over /v1 survive a manager teardown and are served again by
// a recovered namespace behind a fresh server.
func TestDaemonRecovery(t *testing.T) {
	dir := t.TempDir()
	mgr := shard.NewManager(shard.Config{DataDir: dir})
	if _, err := mgr.Create("m", grid.New(12, 12)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(mgr))
	var reply eventsReply
	seed, _ := postEvents(t, ts, "m", faultCluster())
	ts.Close()
	mgr.Close()

	mgr2 := shard.NewManager(shard.Config{DataDir: dir})
	defer mgr2.Close()
	if _, err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newServer(mgr2))
	defer ts2.Close()

	var stats statsReply
	if resp := getJSON(t, ts2.URL+"/v1/meshes/m/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats after recovery: %d", resp.StatusCode)
	}
	if stats.Version != seed.Version || stats.Faults != seed.Faults {
		t.Fatalf("recovered stats %+v, seeded %+v", stats, seed)
	}
	// And the recovered mesh still applies events.
	body, _ := json.Marshal([]engine.Event{{Op: engine.Add, Node: grid.XY(9, 9)}})
	resp := postJSON(t, ts2.URL+"/v1/meshes/m/events", body)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events after recovery: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Version != seed.Version+1 {
		t.Fatalf("post-recovery version %d, want %d", reply.Version, seed.Version+1)
	}
}
