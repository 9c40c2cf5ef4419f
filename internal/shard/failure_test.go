package shard

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
)

// poison corrupts the shard's persisted fault set out-of-band, so the next
// submission makes the persisted replay disagree with the engine. The
// write is safe: the run goroutine only touches s.faults while processing
// a request, none is in flight here, and the next request's channel send
// orders the write before the goroutine's read.
func poison(s *Shard[grid.Coord, grid.Mesh], c grid.Coord) { s.faults.Add(c) }

// TestPoisonedFaultSetLatchesFailure: an engine/persisted-set divergence
// must not panic the process. The shard latches the failure, the failing
// Apply and every subsequent Apply/Read report it, it is visible in Stats,
// and sibling shards keep working.
func TestPoisonedFaultSetLatchesFailure(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("poisoned", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Create("healthy", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}

	// The persisted set now claims (5,5) is faulty while the engine does
	// not: clearing it diverges the replay counts.
	poison(s, grid.XY(5, 5))
	_, err = s.Apply([]engine.Event{clear(5, 5)})
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("divergent apply: got %v, want ErrShardFailed", err)
	}

	if _, err := s.Apply([]engine.Event{add(2, 2)}); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("apply after latch: got %v", err)
	}
	if _, err := s.Read(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("read after latch: got %v", err)
	}
	if _, ok := s.Peek(); ok {
		t.Fatal("peek after latch must report no view")
	}
	if _, _, _, err := s.Planner(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("planner after latch: got %v", err)
	}

	st := s.Stats()
	if st.Failed == "" || !strings.Contains(st.Failed, "diverged") {
		t.Fatalf("stats must surface the latched failure, got %q", st.Failed)
	}
	if st.Resident {
		t.Fatal("failed shard must not report a resident engine")
	}

	// The failure is contained: the sibling shard still serves.
	if _, err := healthy.Apply([]engine.Event{add(3, 3)}); err != nil {
		t.Fatalf("healthy sibling: %v", err)
	}

	// Delete still drains the failed shard.
	if err := m.Delete("poisoned"); err != nil {
		t.Fatalf("delete failed shard: %v", err)
	}
}

// TestRebuildErrorLatchesFailure: a rebuild error on the eviction path
// (injected — real rebuilds of valid fault sets cannot fail) must latch
// the shard instead of panicking the mailbox goroutine.
func TestRebuildErrorLatchesFailure(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	defer m.Close()
	s, err := m.Create("victim", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	s.rebuildFail = errors.New("injected replay failure")

	// A second shard evicts the first (MaxResident 1).
	other, err := m.Create("evictor", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !s.Stats().Resident })

	// The next read forces a rebuild, which now fails and latches.
	if _, err := s.Read(); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("read across failing rebuild: got %v, want ErrShardFailed", err)
	}
	if _, err := s.Apply([]engine.Event{add(2, 2)}); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("apply after latch: got %v", err)
	}
	if st := s.Stats(); !strings.Contains(st.Failed, "injected replay failure") {
		t.Fatalf("stats must carry the rebuild error, got %q", st.Failed)
	}
}
