package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/shard"
)

// FuzzHandleEvents throws arbitrary bodies at the events endpoint of a
// live handler, on a 2-D and a 3-D mesh alike (one generic handler serves
// both): every request must settle as 200, 400 or 413 (the meshes exist
// and nothing administrative races), the service must never panic, and a
// mesh that accepted a batch must still satisfy the snapshot invariants.
func FuzzHandleEvents(f *testing.F) {
	// Seeded corpus mirroring the decoder corpus plus mesh-boundary cases:
	// truncated JSON, out-of-bounds coordinates for the 8-wide test
	// meshes, duplicate add/clear churn, and events of each dimension.
	for _, seed := range []string{
		`[]`,
		`[{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":3,"y":4},{"op":"clear","x":3,"y":4},{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":1,"y":1},{"op":"add","x":1,"y":1},{"op":"clear","x":1,"y":1},{"op":"clear","x":1,"y":1}]`,
		`[{"op":"add","x":8,"y":0}]`,
		`[{"op":"add","x":-1,"y":3}]`,
		`[{"op":"add","x":3,"y":99999999}]`,
		`[{"op":"add","x":3`,
		`[{"op":"add","x":3,"y":4}] trailing`,
		`[{"op":"boom","x":1,"y":1}]`,
		`{"not":"an array"}`,
		`null`,
		"",
		`[{"op":"add","x":3,"y":4,"z":5},{"op":"add","x":4,"y":4,"z":5},{"op":"clear","x":3,"y":4,"z":5}]`,
		`[{"op":"add","x":1,"y":1,"z":8}]`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh service per input keeps crashers self-contained: the
		// archived reproducer alone replays the failure, with no hidden
		// state accumulated from earlier inputs.
		mgr := shard.NewManager(shard.Config{})
		defer mgr.Close()
		flat, err := mgr.Create("m", grid.New(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		cube, err := mgr.Create3("c", grid3.New(8, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(mgr)
		for _, mesh := range []string{"m", "c"} {
			req := httptest.NewRequest(http.MethodPost, "/v1/meshes/"+mesh+"/events", bytes.NewReader(data))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("mesh %s, body %q: status %d, want 200, 400 or 413", mesh, data, rec.Code)
			}
		}
		v, err := flat.Read()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Snapshot.Validate(); err != nil {
			t.Fatalf("2-D snapshot invariants broken after body %q: %v", data, err)
		}
		v3, err := cube.Read()
		if err != nil {
			t.Fatal(err)
		}
		if err := v3.Snapshot.Validate(); err != nil {
			t.Fatalf("3-D snapshot invariants broken after body %q: %v", data, err)
		}
	})
}
