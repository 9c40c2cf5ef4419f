package routing

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/mfp"
	"repro/internal/nodeset"
)

func TestFaultFreeIsMinimal(t *testing.T) {
	m := grid.New(10, 10)
	n := NewPlannerForBlocked(m, nodeset.New(m))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		r, err := n.Route(src, dst)
		if err != nil {
			t.Fatalf("route %v->%v: %v", src, dst, err)
		}
		if r.Length() != m.Dist(src, dst) {
			t.Fatalf("route %v->%v length %d, want %d", src, dst, r.Length(), m.Dist(src, dst))
		}
		if r.AbnormalHops != 0 {
			t.Fatalf("fault-free route took abnormal hops")
		}
	}
}

// The worked example of the paper's Figure 2: source (1,3), destination
// (6,4), faulty polygon {(2,4),(3,4),(4,3)}. The WE-bound message travels
// east in row 3, detours counterclockwise under the polygon through row 2,
// and resumes e-cube to (6,2) and up to (6,4). (The paper narrates the
// message staying abnormal until (5,2); the trajectory is identical — our
// router re-checks the blocking condition one node earlier.)
func TestFigure2Example(t *testing.T) {
	m := grid.New(8, 8)
	blocked := nodeset.FromCoords(m, grid.XY(2, 4), grid.XY(3, 4), grid.XY(4, 3))
	n := NewPlannerForBlocked(m, blocked)
	r, err := n.Route(grid.XY(1, 3), grid.XY(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []grid.Coord{
		grid.XY(1, 3), grid.XY(2, 3), grid.XY(3, 3),
		grid.XY(3, 2), grid.XY(4, 2), grid.XY(5, 2),
		grid.XY(6, 2), grid.XY(6, 3), grid.XY(6, 4),
	}
	got := r.Path()
	if len(got) != len(want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if r.AbnormalHops == 0 {
		t.Fatal("the detour must be flagged abnormal")
	}
	// The message is WE-bound through the detour: vc1.
	for _, h := range r.Hops[:5] {
		if h.Type != WE {
			t.Fatalf("hop %v should be WE-bound, got %v", h, h.Type)
		}
	}
}

func TestMessageTypeTransitions(t *testing.T) {
	m := grid.New(8, 8)
	n := NewPlannerForBlocked(m, nodeset.New(m))
	r, err := n.Route(grid.XY(1, 1), grid.XY(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Row phase WE then column phase SN.
	sawWE, sawSN := false, false
	for _, h := range r.Hops {
		switch h.Type {
		case WE:
			if sawSN {
				t.Fatal("WE hop after SN phase")
			}
			sawWE = true
		case SN:
			sawSN = true
		default:
			t.Fatalf("unexpected type %v", h.Type)
		}
	}
	if !sawWE || !sawSN {
		t.Fatal("expected both WE and SN phases")
	}
	// Westward + southward: EW then NS.
	r, err = n.Route(grid.XY(6, 6), grid.XY(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops[0].Type != EW || r.Hops[len(r.Hops)-1].Type != NS {
		t.Fatalf("EW->NS expected, got %v -> %v", r.Hops[0].Type, r.Hops[len(r.Hops)-1].Type)
	}
}

func TestVCAssignment(t *testing.T) {
	if EW.VC() != 0 || WE.VC() != 1 || NS.VC() != 2 || SN.VC() != 3 {
		t.Fatal("virtual channel assignment must be EW->0, WE->1, NS->2, SN->3")
	}
	names := map[MessageType]string{EW: "EW", WE: "WE", NS: "NS", SN: "SN"}
	for ty, s := range names {
		if ty.String() != s {
			t.Fatalf("%v.String() = %q", s, ty.String())
		}
	}
}

func TestBlockedEndpoints(t *testing.T) {
	m := grid.New(8, 8)
	blocked := nodeset.FromCoords(m, grid.XY(3, 3))
	n := NewPlannerForBlocked(m, blocked)
	if _, err := n.Route(grid.XY(3, 3), grid.XY(5, 5)); !errors.Is(err, ErrBlockedEndpoint) {
		t.Fatalf("blocked source: err = %v", err)
	}
	if _, err := n.Route(grid.XY(0, 0), grid.XY(3, 3)); !errors.Is(err, ErrBlockedEndpoint) {
		t.Fatalf("blocked destination: err = %v", err)
	}
}

func TestColumnPhaseDetour(t *testing.T) {
	m := grid.New(10, 10)
	// A bar straddling the destination column during the column phase.
	blocked := nodeset.FromCoords(m, grid.XY(4, 5), grid.XY(5, 5), grid.XY(6, 5))
	n := NewPlannerForBlocked(m, blocked)
	r, err := n.Route(grid.XY(5, 2), grid.XY(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r.AbnormalHops == 0 {
		t.Fatal("column-phase detour expected")
	}
	got := r.Path()
	if got[len(got)-1] != grid.XY(5, 8) {
		t.Fatalf("message did not arrive: %v", got)
	}
	for _, c := range got {
		if blocked.Has(c) {
			t.Fatalf("path enters blocked node %v", c)
		}
	}
}

func TestBorderRegionFails(t *testing.T) {
	m := grid.New(8, 8)
	// A wall on the east border spanning rows 2..5: rounding it requires
	// the halo.
	blocked := nodeset.New(m)
	for y := 2; y <= 5; y++ {
		blocked.Add(grid.XY(7, y))
	}
	n := NewPlannerForBlocked(m, blocked)
	_, err := n.Route(grid.XY(6, 0), grid.XY(6, 7))
	if err == nil {
		return // routed around without halo: also acceptable (west side free)
	}
	if !errors.Is(err, ErrBorderRegion) && !errors.Is(err, ErrHopBudget) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("torus network should panic")
		}
	}()
	NewPlannerForBlocked(grid.NewTorus(4, 4), nodeset.New(grid.NewTorus(4, 4)))
}

// Random MFP configurations: every routable pair must be delivered and
// paths must avoid blocked nodes. (Deadlock-freedom of the four-channel
// assignment is asserted separately on rectangular blocks, the setting the
// virtual-channel scheme was designed for; see the package documentation.)
func TestRandomConfigurations(t *testing.T) {
	meshSize := 24
	m := grid.New(meshSize, meshSize)
	for seed := int64(0); seed < 10; seed++ {
		// Keep faults interior so regions do not touch the border.
		inj := fault.NewInjector(grid.New(meshSize-6, meshSize-6), fault.Clustered, seed)
		inner := inj.Inject(30)
		faults := nodeset.New(m)
		inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+3, c.Y+3)) })

		res := mfp.Build(m, faults)
		n := NewPlannerForBlocked(m, res.Disabled)
		rng := rand.New(rand.NewSource(seed))
		delivered := 0
		for i := 0; i < 200; i++ {
			src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			if n.Blocked(src) || n.Blocked(dst) || src == dst {
				continue
			}
			r, err := n.Route(src, dst)
			if err != nil {
				t.Fatalf("seed %d: route %v->%v failed: %v", seed, src, dst, err)
			}
			delivered++
			if r.Length() < m.Dist(src, dst) {
				t.Fatalf("seed %d: route shorter than distance", seed)
			}
			for _, c := range r.Path() {
				if n.Blocked(c) {
					t.Fatalf("seed %d: path enters blocked node %v", seed, c)
				}
			}
		}
		if delivered == 0 {
			t.Fatalf("seed %d: no routable pairs sampled", seed)
		}
	}
}

// Deadlock freedom with four virtual channels around rectangular faulty
// blocks: the sampled channel dependency graph must be acyclic, because no
// detour arc around a rectangle reverses the message's class direction.
func TestDeadlockFreeAroundRectangularBlocks(t *testing.T) {
	meshSize := 24
	m := grid.New(meshSize, meshSize)
	for seed := int64(0); seed < 10; seed++ {
		inj := fault.NewInjector(grid.New(meshSize-6, meshSize-6), fault.Clustered, seed)
		inner := inj.Inject(25)
		faults := nodeset.New(m)
		inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+3, c.Y+3)) })

		// The FB model: disabled regions are the rectangular faulty blocks.
		res := block.Build(m, faults)
		n := NewPlannerForBlocked(m, res.Unsafe)
		g := NewDependencyGraph()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			if n.Blocked(src) || n.Blocked(dst) || src == dst {
				continue
			}
			r, err := n.Route(src, dst)
			if err != nil {
				t.Fatalf("seed %d: route %v->%v failed: %v", seed, src, dst, err)
			}
			g.AddRoute(r)
		}
		if g.HasCycle() {
			t.Fatalf("seed %d: channel dependency graph has a cycle", seed)
		}
	}
}

// Convex regions keep detours bounded: a route's length never exceeds the
// Manhattan distance plus the perimeter of the regions it touches (a loose
// but telling bound: here total blocked perimeter).
func TestDetourOverheadBounded(t *testing.T) {
	m := grid.New(20, 20)
	blocked := nodeset.New(m)
	for x := 6; x <= 12; x++ {
		for y := 8; y <= 11; y++ {
			blocked.Add(grid.XY(x, y))
		}
	}
	n := NewPlannerForBlocked(m, blocked)
	r, err := n.Route(grid.XY(9, 2), grid.XY(9, 17))
	if err != nil {
		t.Fatal(err)
	}
	dist := m.Dist(grid.XY(9, 2), grid.XY(9, 17))
	perimeter := 2*(7+4) + 4
	if r.Length() > dist+perimeter {
		t.Fatalf("detour overhead too large: %d hops for distance %d", r.Length(), dist)
	}
}

func TestDependencyGraphCycleDetection(t *testing.T) {
	g := NewDependencyGraph()
	a := Channel{From: grid.XY(0, 0), Dir: grid.East, VC: 0}
	b := Channel{From: grid.XY(1, 0), Dir: grid.East, VC: 0}
	g.edges[a] = map[Channel]bool{b: true}
	if g.HasCycle() {
		t.Fatal("chain is not a cycle")
	}
	g.edges[b] = map[Channel]bool{a: true}
	if !g.HasCycle() {
		t.Fatal("a->b->a must be detected")
	}
	if g.Channels() != 2 || g.Edges() != 2 {
		t.Fatalf("counts: %d channels %d edges", g.Channels(), g.Edges())
	}
}

func TestRouteAccessors(t *testing.T) {
	m := grid.New(6, 6)
	n := NewPlannerForBlocked(m, nodeset.New(m))
	if n.Mesh() != m {
		t.Fatal("Mesh accessor")
	}
	if len(n.Regions()) != 0 {
		t.Fatal("no regions expected")
	}
	r, err := n.Route(grid.XY(0, 0), grid.XY(0, 0))
	if err != nil || r.Length() != 0 {
		t.Fatalf("self route: %v %v", r, err)
	}
	if _, err := n.Route(grid.XY(-1, 0), grid.XY(0, 0)); err == nil {
		t.Fatal("outside endpoints must error")
	}
}
