package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

func add(x, y int) engine.Event   { return engine.Event{Op: engine.Add, Node: grid.XY(x, y)} }
func clear(x, y int) engine.Event { return engine.Event{Op: engine.Clear, Node: grid.XY(x, y)} }

// checkAgainstCore differentially verifies a view against a from-scratch
// core.Construct over the expected fault set.
func checkAgainstCore(t *testing.T, v View[grid.Coord, grid.Mesh], mesh grid.Mesh, faults *nodeset.Set) {
	t.Helper()
	snap := v.Snapshot
	if !snap.Faults().Equal(faults) {
		t.Fatalf("fault set diverged: got %v, want %v", snap.Faults(), faults)
	}
	ref := core.Construct(mesh, faults, core.Options{Workers: 1})
	if !snap.Disabled().Equal(ref.Minimum.Disabled) {
		t.Fatal("disabled set diverged from core.Construct")
	}
	if !snap.Unsafe().Equal(ref.Blocks.Unsafe) {
		t.Fatal("unsafe set diverged from core.Construct")
	}
	if len(snap.Polygons()) != len(ref.Minimum.Polygons) {
		t.Fatalf("%d polygons, core built %d", len(snap.Polygons()), len(ref.Minimum.Polygons))
	}
	for i, p := range snap.Polygons() {
		if !p.Equal(ref.Minimum.Polygons[i]) {
			t.Fatalf("polygon %d diverged from core.Construct", i)
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateGetDeleteList(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Create("bad name", grid.New(4, 4)); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := m.Create("a", grid.Mesh{W: 4, H: 4, Torus: true}); err == nil {
		t.Fatal("torus accepted")
	}
	sa, err := m.Create("a", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", grid.New(8, 8)); !errors.Is(err, ErrMeshExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := m.Create("b", grid.New(4, 6)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Get("a"); err != nil || got != sa {
		t.Fatalf("Get(a) = %v, %v", got, err)
	}
	if _, err := m.Get("zzz"); !errors.Is(err, ErrUnknownMesh) {
		t.Fatalf("Get(zzz): %v", err)
	}
	ls := m.List()
	if len(ls) != 2 || ls[0].Name != "a" || ls[1].Name != "b" || ls[1].Width != 4 || ls[1].Height != 6 {
		t.Fatalf("List: %+v", ls)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("a"); !errors.Is(err, ErrUnknownMesh) {
		t.Fatalf("second delete: %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	// The deleted shard's handle refuses further work.
	if _, err := sa.Apply([]engine.Event{add(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply on deleted shard: %v", err)
	}
	if _, err := sa.Read(); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on deleted shard: %v", err)
	}
	m.Close()
	if _, err := m.Create("c", grid.New(4, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

func TestMaxMeshesBound(t *testing.T) {
	m := NewManager(Config{MaxMeshes: 2})
	defer m.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := m.Create(name, grid.New(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create("c", grid.New(4, 4)); !errors.Is(err, ErrTooManyMeshes) {
		t.Fatalf("create beyond the bound: %v", err)
	}
	// Deleting frees a slot.
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", grid.New(4, 4)); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestApplyCountsAndVersions(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("t", grid.New(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply([]engine.Event{add(1, 1), add(2, 2), add(1, 1), clear(9, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Ignored != 2 || res.View.Version != 2 {
		t.Fatalf("first apply: %+v", res)
	}
	res, err = s.Apply([]engine.Event{clear(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.View.Version != 3 {
		t.Fatalf("second apply: %+v", res)
	}
	// A bad submission fails alone and changes nothing.
	if _, err := s.Apply([]engine.Event{add(3, 3), add(99, 0)}); err == nil {
		t.Fatal("out-of-mesh submission accepted")
	}
	v, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 3 || v.Snapshot.Faults().Len() != 1 {
		t.Fatalf("after bad submission: version %d, %d faults", v.Version, v.Snapshot.Faults().Len())
	}
	st := s.Stats()
	if st.Version != 3 || st.Faults != 1 || st.Components != 1 || !st.Resident {
		t.Fatalf("stats: %+v", st)
	}
}

// A random event stream applied through a shard matches a from-scratch
// core.Construct at every step boundary.
func TestShardDifferentialAgainstCore(t *testing.T) {
	mesh := grid.New(16, 16)
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("d", mesh)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	expected := nodeset.New(mesh)
	for batch := 0; batch < 30; batch++ {
		events := make([]engine.Event, 0, 8)
		for i := 0; i < 8; i++ {
			n := grid.XY(rng.Intn(16), rng.Intn(16))
			if rng.Intn(3) == 0 {
				events = append(events, engine.Event{Op: engine.Clear, Node: n})
				expected.Remove(n)
			} else {
				events = append(events, engine.Event{Op: engine.Add, Node: n})
				expected.Add(n)
			}
		}
		res, err := s.Apply(events)
		if err != nil {
			t.Fatal(err)
		}
		if batch%10 == 9 {
			checkAgainstCore(t, res.View, mesh, expected)
		}
	}
	v, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCore(t, v, mesh, expected)
}

// Eviction drops the engine but not the persisted fault set: the rebuilt
// constructions are identical, version included.
func TestEvictionRebuildPreservesState(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	defer m.Close()
	mesh := grid.New(12, 12)
	a, err := m.Create("a", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply([]engine.Event{add(2, 2), add(3, 2), add(5, 5)}); err != nil {
		t.Fatal(err)
	}
	before, err := a.Read()
	if err != nil {
		t.Fatal(err)
	}

	// Touching b makes it resident and marks a for eviction.
	b, err := m.Create("b", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !a.Stats().Resident })

	after, err := a.Read() // forces the rebuild
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("version changed across eviction: %d -> %d", before.Version, after.Version)
	}
	if !after.Snapshot.Faults().Equal(before.Snapshot.Faults()) ||
		!after.Snapshot.Disabled().Equal(before.Snapshot.Disabled()) ||
		!after.Snapshot.Unsafe().Equal(before.Snapshot.Unsafe()) {
		t.Fatal("rebuilt state diverged from pre-eviction state")
	}
	st := a.Stats()
	if st.Evictions == 0 || st.Rebuilds == 0 {
		t.Fatalf("no eviction/rebuild recorded: %+v", st)
	}
	expected := nodeset.FromCoords(mesh, grid.XY(2, 2), grid.XY(3, 2), grid.XY(5, 5))
	checkAgainstCore(t, after, mesh, expected)
}

// waitFor polls until cond holds; eviction is asynchronous (the victim's
// own goroutine performs it at its next mailbox turn).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("condition not reached")
}

// Concurrent writers, readers, stats pollers and a delete racing them:
// exercises mailbox coalescing, wait-free reads and drain-on-delete under
// the race detector.
func TestConcurrentUseAndDelete(t *testing.T) {
	m := NewManager(Config{MaxResident: 2, Mailbox: 8})
	defer m.Close()
	mesh := grid.New(20, 20)
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if _, err := m.Create(n, mesh); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				s, err := m.Get(names[rng.Intn(len(names))])
				if err != nil {
					continue // deleted concurrently
				}
				switch rng.Intn(3) {
				case 0:
					events := []engine.Event{
						{Op: engine.Add, Node: grid.XY(rng.Intn(20), rng.Intn(20))},
						{Op: engine.Clear, Node: grid.XY(rng.Intn(20), rng.Intn(20))},
					}
					if _, err := s.Apply(events); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("apply: %v", err)
						return
					}
				case 1:
					if v, err := s.Read(); err == nil {
						if v.Snapshot == nil {
							t.Error("nil snapshot from Read")
							return
						}
					} else if !errors.Is(err, ErrClosed) {
						t.Errorf("read: %v", err)
						return
					}
				default:
					s.Stats()
				}
			}
		}(int64(w))
	}
	// Delete a shard while traffic is in flight.
	if err := m.Delete("d"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Whatever survived must still be differentially sound.
	for _, n := range names[:3] {
		s, err := m.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCore(t, v, mesh, v.Snapshot.Faults())
	}
}

// Close drains: submissions accepted before Close complete with replies.
func TestCloseDrains(t *testing.T) {
	m := NewManager(Config{Mailbox: 256})
	s, err := m.Create("x", grid.New(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue directly so acceptance is certain, then close: every accepted
	// submission must still be applied and replied to.
	reqs := make([]*request[grid.Coord, grid.Mesh], 30)
	for i := range reqs {
		reqs[i] = &request[grid.Coord, grid.Mesh]{events: []engine.Event{add(i%10, i/10)}, reply: make(chan result[grid.Coord, grid.Mesh], 1)}
		if err := s.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	for i, r := range reqs {
		if res := <-r.reply; res.err != nil {
			t.Fatalf("accepted request %d dropped across Close: %v", i, res.err)
		}
	}
	if got := s.Stats().Version; got != 30 {
		t.Fatalf("version after drain: %d, want 30", got)
	}
	if _, err := s.Apply([]engine.Event{add(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
}

// Many tiny submissions racing into one shard coalesce into fewer engine
// batches while per-submission counts stay exact.
func TestCoalescing(t *testing.T) {
	m := NewManager(Config{Mailbox: 128})
	defer m.Close()
	s, err := m.Create("c", grid.New(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	var wg sync.WaitGroup
	applied := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Apply([]engine.Event{add(i%30, i/30)})
			if err != nil {
				t.Error(err)
				return
			}
			applied[i] = res.Applied
		}(i)
	}
	wg.Wait()
	total := 0
	for _, a := range applied {
		total += a
	}
	if total != n {
		t.Fatalf("applied %d of %d distinct adds", total, n)
	}
	st := s.Stats()
	if st.Version != n || st.Faults != n {
		t.Fatalf("stats after coalescing: %+v", st)
	}
	if st.Batches > st.Requests {
		t.Fatalf("batches %d > requests %d", st.Batches, st.Requests)
	}
	t.Logf("%d submissions coalesced into %d engine batches", st.Requests, st.Batches)
}
