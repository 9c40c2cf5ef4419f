package routing

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

// snapshotFor applies the faults as engine events and returns the snapshot.
func snapshotFor(t *testing.T, m grid.Mesh, faults *nodeset.Set) *engine.Snapshot {
	t.Helper()
	snap, err := engine.SnapshotOf(m, faults)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func sameRoute(a, b *Route) bool {
	if a.Src != b.Src || a.Dst != b.Dst || a.AbnormalHops != b.AbnormalHops || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// TestPlannerMatchesLegacyOnSnapshots is the differential gate of the
// snapshot construction path: a planner built from an engine snapshot
// (reusing the cached per-component polygons, merging the ones that touch)
// must route byte-identically to NewPlannerForBlocked over its disabled
// union, which re-floods the disabled union from scratch.
func TestPlannerMatchesLegacyOnSnapshots(t *testing.T) {
	m := grid.New(24, 24)
	for seed := int64(0); seed < 8; seed++ {
		for _, model := range []fault.Model{fault.Random, fault.Clustered} {
			faults := nodeset.New(m)
			fault.NewInjector(grid.New(m.W-6, m.H-6), model, seed).Inject(20 + int(seed)*4).Each(func(c grid.Coord) {
				faults.Add(grid.XY(c.X+3, c.Y+3))
			})
			snap := snapshotFor(t, m, faults)
			p := NewPlanner(snap)
			legacy := NewPlannerForBlocked(m, snap.Disabled())

			if got, want := len(p.Regions()), len(legacy.Regions()); got != want {
				t.Fatalf("seed %d %v: planner has %d regions, legacy %d", seed, model, got, want)
			}
			for i, reg := range p.Regions() {
				if !reg.Equal(legacy.Regions()[i]) {
					t.Fatalf("seed %d %v: region %d differs", seed, model, i)
				}
			}

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
				dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
				pr, perr := p.Route(src, dst)
				lr, lerr := legacy.Route(src, dst)
				if (perr == nil) != (lerr == nil) {
					t.Fatalf("seed %d %v %v->%v: planner err %v, legacy err %v", seed, model, src, dst, perr, lerr)
				}
				if perr != nil {
					if perr.Error() != lerr.Error() {
						t.Fatalf("seed %d %v %v->%v: planner err %q, legacy err %q", seed, model, src, dst, perr, lerr)
					}
					continue
				}
				if !sameRoute(pr, lr) {
					t.Fatalf("seed %d %v %v->%v: planner path %v, legacy path %v", seed, model, src, dst, pr.Path(), lr.Path())
				}
			}
		}
	}
}

// TestPlannerMergesTouchingPolygons: two fault components whose closures
// touch (B's single fault sits 4-adjacent to a cell A's closure filled in)
// must detour as one region, exactly like the legacy re-flood of the
// disabled union.
func TestPlannerMergesTouchingPolygons(t *testing.T) {
	m := grid.New(12, 12)
	faults := nodeset.FromCoords(m,
		// Component A: an arc whose closure fills column 2, rows 3..5.
		grid.XY(2, 2), grid.XY(3, 3), grid.XY(3, 4), grid.XY(3, 5), grid.XY(2, 6),
		// Component B: 8-separated from every A fault, but 4-adjacent to
		// A's filled cell (2,4).
		grid.XY(1, 4),
	)
	snap := snapshotFor(t, m, faults)
	if len(snap.Polygons()) != 2 {
		t.Fatalf("want 2 components, got %d", len(snap.Polygons()))
	}
	p := NewPlanner(snap)
	if len(p.Regions()) != 1 {
		t.Fatalf("touching polygons must merge into 1 detour region, got %d", len(p.Regions()))
	}
	legacy := NewPlannerForBlocked(m, snap.Disabled())
	if !p.Regions()[0].Equal(legacy.Regions()[0]) {
		t.Fatal("merged region differs from the legacy re-flood")
	}
	for _, q := range []Query{
		{Src: grid.XY(0, 0), Dst: grid.XY(11, 11)},
		{Src: grid.XY(0, 4), Dst: grid.XY(8, 4)},
		{Src: grid.XY(2, 0), Dst: grid.XY(2, 11)},
	} {
		pr, perr := p.Route(q.Src, q.Dst)
		lr, lerr := legacy.Route(q.Src, q.Dst)
		if perr != nil || lerr != nil {
			t.Fatalf("%v->%v: errs %v / %v", q.Src, q.Dst, perr, lerr)
		}
		if !sameRoute(pr, lr) {
			t.Fatalf("%v->%v: planner %v, legacy %v", q.Src, q.Dst, pr.Path(), lr.Path())
		}
	}
}

// pinchedRegion is a blocked shape whose expanded boundary ring revisits
// two cells ((4,4) and (7,5)): the ring dips into the one-cell slots at
// (5,4) and (6,5) and back out. A message entering the ring at a revisited
// cell is exactly the ambiguity the occurrence-aware position lookup
// resolves.
func pinchedRegion(m grid.Mesh) *nodeset.Set {
	return nodeset.FromCoords(m,
		grid.XY(5, 3), grid.XY(6, 4), grid.XY(5, 5), grid.XY(6, 6), grid.XY(7, 6))
}

// TestPinchedRingEntryTakesShortArc is the regression test for the
// first-occurrence ringPos bug: a SN message entering the detour at (7,5)
// — a cell the pinched ring visits twice — must start its walk on the
// boundary arc that leads around the region, not on the one that dives
// into the dead-end slot at (6,5) and back out.
func TestPinchedRingEntryTakesShortArc(t *testing.T) {
	m := grid.New(16, 16)
	n := NewPlannerForBlocked(m, pinchedRegion(m))
	r, err := n.Route(grid.XY(7, 2), grid.XY(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	var abnormal []grid.Coord
	for _, h := range r.Hops {
		if h.Abnormal {
			abnormal = append(abnormal, h.To)
		}
	}
	if len(abnormal) == 0 {
		t.Fatal("route around the region must take abnormal hops")
	}
	if abnormal[0] != grid.XY(7, 4) {
		t.Fatalf("first abnormal hop dove into the slot: went to %v, want (7,4) (full path %v)",
			abnormal[0], r.Path())
	}
	// The short arc circles the region in 16 abnormal hops; the slot dive
	// of the first-occurrence bug took 18.
	if r.AbnormalHops != 16 {
		t.Fatalf("abnormal hops = %d, want 16 (path %v)", r.AbnormalHops, r.Path())
	}
}

// TestPinchedRingSlotDestination: the slot cells themselves are routable
// destinations reached through the spur, so occurrence-aware lookup must
// not lose them.
func TestPinchedRingSlotDestination(t *testing.T) {
	m := grid.New(16, 16)
	n := NewPlannerForBlocked(m, pinchedRegion(m))
	for _, dst := range []grid.Coord{grid.XY(5, 4), grid.XY(6, 5)} {
		r, err := n.Route(grid.XY(0, 0), dst)
		if err != nil {
			t.Fatalf("route to slot cell %v: %v", dst, err)
		}
		if got := r.Path()[len(r.Hops)]; got != dst {
			t.Fatalf("route to %v ends at %v", dst, got)
		}
	}
}

func TestPlannerErrorPaths(t *testing.T) {
	m := grid.New(16, 16)

	t.Run("blocked endpoint", func(t *testing.T) {
		p := NewPlannerForBlocked(m, nodeset.FromCoords(m, grid.XY(5, 5)))
		if _, err := p.Route(grid.XY(5, 5), grid.XY(0, 0)); !errors.Is(err, ErrBlockedEndpoint) {
			t.Fatalf("blocked source: got %v", err)
		}
		if _, err := p.Route(grid.XY(0, 0), grid.XY(5, 5)); !errors.Is(err, ErrBlockedEndpoint) {
			t.Fatalf("blocked destination: got %v", err)
		}
	})

	t.Run("border region", func(t *testing.T) {
		// A wall touching the south border: the detour needs the virtual
		// halo row below the mesh.
		wall := nodeset.New(m)
		for y := 0; y < 6; y++ {
			wall.Add(grid.XY(8, y))
		}
		p := NewPlannerForBlocked(m, wall)
		if _, err := p.Route(grid.XY(2, 2), grid.XY(14, 2)); !errors.Is(err, ErrBorderRegion) {
			t.Fatalf("border detour: got %v", err)
		}
	})

	t.Run("hop budget", func(t *testing.T) {
		// A non-convex multi-bar shape (found by search) that livelocks the
		// extended e-cube walk: the message keeps re-encountering the region
		// until the hop budget trips. Convex regions never do this — the
		// budget is the router's defence against callers that skip the MFP
		// construction.
		blocked := nodeset.New(m)
		for y := 6; y <= 10; y++ {
			blocked.Add(grid.XY(7, y))
		}
		for x := 2; x <= 9; x++ {
			blocked.Add(grid.XY(x, 12))
		}
		for x := 6; x <= 11; x++ {
			blocked.Add(grid.XY(x, 14))
		}
		blocked.Add(grid.XY(5, 11))
		blocked.Add(grid.XY(9, 11))
		blocked.Add(grid.XY(5, 13))
		blocked.Add(grid.XY(9, 13))
		p := NewPlannerForBlocked(m, blocked)
		if _, err := p.Route(grid.XY(0, 6), grid.XY(10, 0)); !errors.Is(err, ErrHopBudget) {
			t.Fatalf("livelock shape: got %v", err)
		}
	})

	t.Run("outside mesh", func(t *testing.T) {
		p := NewPlannerForBlocked(m, nodeset.New(m))
		if _, err := p.Route(grid.XY(-1, 0), grid.XY(3, 3)); err == nil {
			t.Fatal("out-of-mesh source must fail")
		}
	})
}

// TestRouteAllDeterministicAcrossWorkers: RouteAll must return identical
// results at any worker count, in query order.
func TestRouteAllDeterministicAcrossWorkers(t *testing.T) {
	m := grid.New(20, 20)
	faults := nodeset.New(m)
	fault.NewInjector(grid.New(14, 14), fault.Clustered, 5).Inject(30).Each(func(c grid.Coord) {
		faults.Add(grid.XY(c.X+3, c.Y+3))
	})
	p := NewPlanner(snapshotFor(t, m, faults))

	rng := rand.New(rand.NewSource(9))
	queries := make([]Query, 300)
	for i := range queries {
		queries[i] = Query{
			Src: grid.XY(rng.Intn(m.W), rng.Intn(m.H)),
			Dst: grid.XY(rng.Intn(m.W), rng.Intn(m.H)),
		}
	}
	base := p.RouteAll(queries, 1)
	for _, workers := range []int{0, 2, 7} {
		got := p.RouteAll(queries, workers)
		for i := range queries {
			if (got[i].Err == nil) != (base[i].Err == nil) {
				t.Fatalf("workers=%d query %d: err %v vs %v", workers, i, got[i].Err, base[i].Err)
			}
			if got[i].Err == nil && !sameRoute(got[i].Route, base[i].Route) {
				t.Fatalf("workers=%d query %d: routes differ", workers, i)
			}
		}
	}
}

// TestRingPositionsOccurrences: the dense ring index must expose every
// occurrence of a pinch cell, in ascending position order.
func TestRingPositionsOccurrences(t *testing.T) {
	m := grid.New(16, 16)
	p := NewPlannerForBlocked(m, pinchedRegion(m))
	if len(p.Regions()) != 1 {
		t.Fatalf("want 1 region, got %d", len(p.Regions()))
	}
	for _, pinch := range []grid.Coord{grid.XY(4, 4), grid.XY(7, 5)} {
		occ := p.ringPositions(0, pinch, nil)
		if len(occ) != 2 {
			t.Fatalf("pinch cell %v: want 2 ring occurrences, got %v", pinch, occ)
		}
		if occ[0] >= occ[1] {
			t.Fatalf("pinch cell %v: occurrences not ascending: %v", pinch, occ)
		}
	}
	if occ := p.ringPositions(0, grid.XY(0, 0), nil); len(occ) != 0 {
		t.Fatalf("off-ring cell: got %v", occ)
	}
}
