package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/nodeset"
)

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Op: Add, Node: grid.XY(3, 4)},
		{Op: Clear, Node: grid.XY(0, 99)},
	}
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"op":"add","x":3,"y":4},{"op":"clear","x":0,"y":99}]`; string(data) != want {
		t.Fatalf("wire format drifted:\n got %s\nwant %s", data, want)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != events[0] || back[1] != events[1] {
		t.Fatalf("round trip changed events: %v", back)
	}
}

func TestEventJSONRejectsBadInput(t *testing.T) {
	for _, bad := range []string{`{"op":"frob","x":1,"y":2}`, `{"op":3}`, `[1,2]`} {
		var e Event
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
	if _, err := (Event{Op: Op(7)}).MarshalJSON(); err == nil {
		t.Fatal("invalid op marshalled")
	}
	if Op(9).String() == "" || (Event{}).String() == "" {
		t.Fatal("String stringers returned nothing")
	}
}

// Missing fields must be rejected, not silently decoded as zero — a
// corrupt event would otherwise become a fault at the origin.
func TestEventJSONRequiresAllFields(t *testing.T) {
	for _, bad := range []string{`{"op":"add"}`, `{"op":"add","x":3}`, `{"op":"add","y":4}`, `{"x":1,"y":2}`} {
		var e Event
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Fatalf("%s accepted as %v", bad, e)
		}
	}
}

func TestDecodeEvents(t *testing.T) {
	events, err := DecodeEvents(strings.NewReader(`[{"op":"add","x":3,"y":4},{"op":"clear","x":3,"y":4}]`))
	if err != nil || len(events) != 2 || events[0].Op != Add || events[1].Op != Clear {
		t.Fatalf("valid batch: %v, %v", events, err)
	}
	for _, bad := range []string{
		`[{"op":"add","x":3`,              // truncated
		`[{"op":"add","x":3,"y":4}] junk`, // trailing garbage
		`[{"op":"add","x":3,"y":4}][]`,    // concatenated documents
		`{"op":"add","x":3,"y":4}`,        // not an array
		`[{"op":"frob","x":3,"y":4}]`,     // unknown op
	} {
		if _, err := DecodeEvents(strings.NewReader(bad)); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}

// Replay counts exactly the state-changing events, matching Apply's
// applied semantics, and never misreads an invalid op as a Clear.
func TestReplayMatchesApply(t *testing.T) {
	events := []Event{
		{Op: Add, Node: grid.XY(1, 1)},
		{Op: Add, Node: grid.XY(1, 1)},   // duplicate: ignored
		{Op: Clear, Node: grid.XY(2, 2)}, // healthy: ignored
		{Op: Add, Node: grid.XY(2, 2)},
		{Op: Clear, Node: grid.XY(1, 1)},
	}
	m := grid.New(4, 4)
	faults := nodeset.New(m)
	changed := Replay(faults, events...)

	e, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	applied, snap, err := e.Apply(events)
	if err != nil {
		t.Fatal(err)
	}
	if changed != applied || changed != 3 {
		t.Fatalf("Replay counted %d, Apply %d, want 3", changed, applied)
	}
	if !snap.Faults().Equal(faults) {
		t.Fatalf("Replay state %v diverged from Apply state %v", faults, snap.Faults())
	}

	// An invalid op is ignored, not treated as a repair.
	before := faults.Clone()
	if n := Replay(faults, Event{Op: Op(7), Node: grid.XY(2, 2)}); n != 0 || !faults.Equal(before) {
		t.Fatalf("invalid op changed state (n=%d, %v)", n, faults)
	}
}
