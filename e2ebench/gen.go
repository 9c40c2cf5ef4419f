package main

// Input generation. Everything a run sends is a pure function of the
// -seed flag: the fault populations come from the clustered generator
// below (kept in this directory so that changes to internal/fault cannot
// move the benchmark's inputs) and the request sequence from a seeded
// stream over a model of each mesh's fault state.

import (
	"fmt"
	"sort"
)

// rng is splitmix64: tiny, fast and fixed forever, so a seed names the
// same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// subSeed derives the seed of an independent stream (one per mesh, one
// for the request sequence) from the run seed.
func subSeed(seed uint64, stream int) uint64 {
	r := newRNG(seed ^ uint64(stream+1)*0xd1b54a32d192ed03)
	return r.next()
}

// box is an axis-aligned window of a mesh: [x0,x0+w)×[y0,y0+h)×[z0,z0+d).
// d is 1 on 2-D meshes.
type box struct{ x0, y0, z0, w, h, d int }

func (b box) size() int { return b.w * b.h * b.d }

// clustered draws n distinct faults inside b shrunk by margin on every
// side (z is not shrunk on 2-D windows) under the paper's clustered model:
// every node starts at weight 1 and a node 8-adjacent (26-adjacent in 3-D)
// to a fault has weight 2. Faults are returned as mesh coordinates in
// draw order.
func clustered(b box, n, margin int, seed uint64) [][3]int {
	zm := margin
	if b.d == 1 {
		zm = 0
	}
	in := box{b.x0 + margin, b.y0 + margin, b.z0 + zm, b.w - 2*margin, b.h - 2*margin, b.d - 2*zm}
	if in.w <= 0 || in.h <= 0 || in.d <= 0 || n > in.size() {
		panic(fmt.Sprintf("clustered: %d faults do not fit %v with margin %d", n, b, margin))
	}
	r := newRNG(seed)
	faulty := make([]bool, in.size())
	boosted := make([]bool, in.size())
	out := make([][3]int, 0, n)
	for len(out) < n {
		i := r.intn(in.size())
		if faulty[i] || (!boosted[i] && r.intn(2) == 0) {
			continue
		}
		faulty[i] = true
		x, y, z := i%in.w, (i/in.w)%in.h, i/(in.w*in.h)
		out = append(out, [3]int{in.x0 + x, in.y0 + y, in.z0 + z})
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny, nz := x+dx, y+dy, z+dz
					if nx < 0 || ny < 0 || nz < 0 || nx >= in.w || ny >= in.h || nz >= in.d {
						continue
					}
					boosted[nx+in.w*(ny+in.h*nz)] = true
				}
			}
		}
	}
	return out
}

// meshSpec is one mesh a workload hosts.
type meshSpec struct {
	name    string
	w, h, d int // d == 0: a 2-D mesh
	// faults is the preloaded population in row-major index order.
	faults []int
	// win is where writes, status reads and route endpoints land: the
	// whole mesh, or the fault window of sparse-1000.
	win box
}

func (m meshSpec) size() int {
	if m.d == 0 {
		return m.w * m.h
	}
	return m.w * m.h * m.d
}

func (m meshSpec) coord(i int) (x, y, z int) {
	return i % m.w, (i / m.w) % m.h, i / (m.w * m.h)
}

func (m meshSpec) index(x, y, z int) int { return x + m.w*(y+m.h*z) }

// newMeshSpec generates a mesh's fault population: n clustered faults
// inside the window with the given margin.
func newMeshSpec(name string, w, h, d int, win box, n, margin int, seed uint64) meshSpec {
	m := meshSpec{name: name, w: w, h: h, d: d, win: win}
	for _, c := range clustered(win, n, margin, seed) {
		m.faults = append(m.faults, m.index(c[0], c[1], c[2]))
	}
	sort.Ints(m.faults)
	return m
}

// opKind is one request type. Tails are kept per kind and never pooled.
type opKind uint8

const (
	opAdd opKind = iota
	opClear
	opStatus
	opPolygons
	opRoute
	// opPlaneAdd and opPlaneClear are writes to cube-64's 2-D plane mesh;
	// they only invalidate its route planner and stay out of the add and
	// clear metrics, which belong to the primary (3-D) mesh.
	opPlaneAdd
	opPlaneClear
	numOpKinds
)

var opNames = [numOpKinds]string{"add", "clear", "status", "polygons", "route", "plane_add", "plane_clear"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool {
	return k == opAdd || k == opClear || k == opPlaneAdd || k == opPlaneClear
}

// op is one request: node and dst are row-major node indices of mesh.
type op struct {
	kind      opKind
	mesh      int
	node, dst int
	// faults is the mesh's expected fault count after a write.
	faults int
	// pending is the write-node the mesh carries while this op runs (-1
	// for none): the mesh's fault set is its base population plus pending.
	pending int
}

// workload is a named set of meshes and the request stream over them.
type workload struct {
	name string
	// meshes[0] is the primary mesh: the one whose engine the add and
	// clear metrics measure.
	meshes []meshSpec
	// step emits the next request; it owns the cycle position and may
	// read and update the fault model through s.
	step func(s *sequence) op
	// setupRepeats is how many times one run sets the server up; the
	// reported setup_s is their median.
	setupRepeats int
}

// sequence is the deterministic request stream of one run.
type sequence struct {
	w       *workload
	r       *rng
	faulty  [][]bool // base population per mesh
	pending []int    // per mesh: the added write-node awaiting its clear, or -1
	pos     int      // position in the workload's cycle
}

func newSequence(w *workload, seed uint64) *sequence {
	s := &sequence{w: w, r: newRNG(subSeed(seed, 1<<20)), pending: make([]int, len(w.meshes))}
	for i, m := range w.meshes {
		f := make([]bool, m.size())
		for _, n := range m.faults {
			f[n] = true
		}
		s.faulty = append(s.faulty, f)
		s.pending[i] = -1
	}
	return s
}

func (s *sequence) next() op { return s.w.step(s) }

// pick returns a uniform node of mesh m's window.
func (s *sequence) pick(m int) int {
	ms := s.w.meshes[m]
	b := ms.win
	x, y, z := b.x0+s.r.intn(b.w), b.y0+s.r.intn(b.h), b.z0+s.r.intn(b.d)
	return ms.index(x, y, z)
}

// healthy returns a uniform node of mesh m's window outside its base
// fault population.
func (s *sequence) healthy(m int) int {
	for {
		if n := s.pick(m); !s.faulty[m][n] {
			return n
		}
	}
}

func (s *sequence) baseFaults(m int) int { return len(s.w.meshes[m].faults) }

// write emits the next single-event write of mesh m: a clear of the
// pending node if there is one, otherwise an add of a fresh healthy node.
// The population therefore alternates between base and base+1.
func (s *sequence) write(m int, add, clear opKind) op {
	if p := s.pending[m]; p >= 0 {
		s.pending[m] = -1
		return op{kind: clear, mesh: m, node: p, faults: s.baseFaults(m), pending: p}
	}
	n := s.healthy(m)
	s.pending[m] = n
	return op{kind: add, mesh: m, node: n, faults: s.baseFaults(m) + 1, pending: -1}
}

func (s *sequence) read(kind opKind, m int) op {
	o := op{kind: kind, mesh: m, pending: s.pending[m]}
	switch kind {
	case opStatus:
		o.node = s.pick(m)
	case opRoute:
		o.node = s.pick(m)
		for o.dst = s.pick(m); o.dst == o.node; o.dst = s.pick(m) {
		}
	}
	return o
}

// Workloads. Each stresses a different layer; README.md gives the reasons.

const (
	tenantMeshes = 16
	tenantSide   = 100
	sparseSide   = 1000
	sparseWindow = 300
	cubeSide     = 64
	planeSide    = 64
	faultMargin  = 2
)

var workloadNames = []string{"tenants-100", "sparse-1000", "cube-64"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "tenants-100":
		return tenants100(seed), nil
	case "sparse-1000":
		return sparse1000(seed), nil
	case "cube-64":
		return cube64(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// tenants100: 16 100² meshes at 1% clustered faults; every request
// goes to a uniform mesh: 50% status, 30% single-event writes, 10% routes,
// 10% polygons.
func tenants100(seed uint64) *workload {
	w := &workload{name: "tenants-100", setupRepeats: 21}
	whole := box{0, 0, 0, tenantSide, tenantSide, 1}
	for i := 0; i < tenantMeshes; i++ {
		w.meshes = append(w.meshes, newMeshSpec(fmt.Sprintf("t%02d", i), tenantSide, tenantSide, 0,
			whole, tenantSide*tenantSide/100, faultMargin, subSeed(seed, i)))
	}
	w.step = func(s *sequence) op {
		m := s.r.intn(tenantMeshes)
		switch u := s.r.float(); {
		case u < 0.5:
			return s.read(opStatus, m)
		case u < 0.8:
			return s.write(m, opAdd, opClear)
		case u < 0.9:
			return s.read(opRoute, m)
		default:
			return s.read(opPolygons, m)
		}
	}
	return w
}

// sparse1000 cycle: 10 add/clear pairs, 20 routes (the first rebuilds the
// planner), 5 status reads and one polygons read.
const (
	sparsePairs    = 10
	sparseRoutes   = 20
	sparseStatuses = 5
	sparseCycle    = 2*sparsePairs + sparseRoutes + sparseStatuses + 1
)

// sparse1000: one 1000² mesh holding the 900 clustered faults that
// 1% of 300² holds, in the same coordinates as on a 300² mesh.
func sparse1000(seed uint64) *workload {
	win := box{0, 0, 0, sparseWindow, sparseWindow, 1}
	w := &workload{name: "sparse-1000", setupRepeats: 9}
	w.meshes = []meshSpec{newMeshSpec("sparse", sparseSide, sparseSide, 0, win,
		sparseWindow*sparseWindow/100, faultMargin, subSeed(seed, 0))}
	w.step = func(s *sequence) op {
		i := s.pos
		s.pos = (s.pos + 1) % sparseCycle
		switch {
		case i < 2*sparsePairs:
			return s.write(0, opAdd, opClear)
		case i < 2*sparsePairs+sparseRoutes:
			return s.read(opRoute, 0)
		case i < 2*sparsePairs+sparseRoutes+sparseStatuses:
			return s.read(opStatus, 0)
		default:
			return s.read(opPolygons, 0)
		}
	}
	return w
}

// cube64 cycle: 8 × (add, status, clear, status) on the 64³ mesh, one
// polytopes read, then a plane segment (add, route, route, clear, route,
// route) on the 2-D plane mesh, so that its routes both miss and hit.
const (
	cubePairs = 8
	cubeCycle = 4*cubePairs + 1 + 6
)

// cube64: one 64³ mesh at 0.5% clustered 3-D faults, beside a
// 2-D 64² plane mesh at 1% that carries the route traffic (routing is
// 2-D only).
func cube64(seed uint64) *workload {
	w := &workload{name: "cube-64", setupRepeats: 5}
	cube := box{0, 0, 0, cubeSide, cubeSide, cubeSide}
	plane := box{0, 0, 0, planeSide, planeSide, 1}
	w.meshes = []meshSpec{
		newMeshSpec("cube", cubeSide, cubeSide, cubeSide, cube, cubeSide*cubeSide*cubeSide/200, faultMargin, subSeed(seed, 0)),
		newMeshSpec("plane", planeSide, planeSide, 0, plane, planeSide*planeSide/100, faultMargin, subSeed(seed, 1)),
	}
	w.step = func(s *sequence) op {
		i := s.pos
		s.pos = (s.pos + 1) % cubeCycle
		switch {
		case i < 4*cubePairs:
			if i%2 == 1 {
				return s.read(opStatus, 0)
			}
			return s.write(0, opAdd, opClear)
		case i == 4*cubePairs:
			return s.read(opPolygons, 0)
		case i == 4*cubePairs+1 || i == 4*cubePairs+4:
			return s.write(1, opPlaneAdd, opPlaneClear)
		default:
			return s.read(opRoute, 1)
		}
	}
	return w
}
