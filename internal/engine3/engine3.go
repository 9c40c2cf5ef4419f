// Package engine3 is the 3-D instantiation of the kernel's incremental
// engine: the paper's "higher dimension meshes" future work, maintained
// under fault churn instead of rebuilt per event. Engine, Snapshot and
// Event are kernel types pinned at grid3.Mesh, so AddFault merges the
// touched 26-connected component and re-closes only its minimum orthogonal
// convex polytope, ClearFault re-splits only the component that lost the
// fault, and snapshots share every untouched polytope copy-on-write —
// exactly the 2-D engine's behaviour, from the same generic code.
//
// The one per-topology choice is the block model behind Snapshot.Unsafe:
// the 2-D scheme-1 fixpoint has no 3-D analogue, so the 3-D engine
// maintains the union of component bounding cuboids — mfp3d's
// DisabledCuboid, the 3-D faulty block model — which the differential
// tests pin against batch mfp3d.Build after every event.
//
// The shard layer and mfpd host 3-D engines next to 2-D ones: create a
// mesh with a depth and POST events shaped {"op":"add","x":..,"y":..,
// "z":..}; the polygons endpoint then serves polytopes. Routing remains
// 2-D-only.
package engine3

import (
	"fmt"
	"io"

	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
)

// Op is the kind of a fault event.
type Op = kernel.Op

// The two event ops.
const (
	// Add marks a node faulty (a fault arrival).
	Add = kernel.Add
	// Clear marks a faulty node repaired (a fault departure).
	Clear = kernel.Clear
)

// Event is one fault arrival or repair on a 3-D mesh; the wire format is
// {"op":"add","x":3,"y":4,"z":5} (see kernel.Event and grid3.Coord's JSON
// codec, which rejects events missing a z).
type Event = kernel.Event[grid3.Coord]

// Engine maintains the polytope constructions of a 3-D mesh under a stream
// of fault events — kernel.Engine pinned at grid3.Mesh.
type Engine = kernel.Engine[grid3.Coord, grid3.Mesh]

// Snapshot is one immutable view of a 3-D engine's state: components,
// minimum faulty polytopes, their disabled union, and the cuboid unsafe
// set.
type Snapshot = kernel.Snapshot[grid3.Coord, grid3.Mesh]

// New returns an engine over an empty fault set. Tori are rejected, like
// the 2-D engine and the batch mfp3d construction.
func New(m grid3.Mesh) (*Engine, error) {
	if m.Torus {
		return nil, fmt.Errorf("engine3: %v not supported (mesh only)", m)
	}
	return kernel.NewEngine(m, newCuboids)
}

// Replay applies events to a plain fault set and returns how many changed
// it. See kernel.Replay.
func Replay(faults *nodeset3.Set, events ...Event) int {
	return kernel.Replay(faults, events...)
}

// DecodeEvents decodes a JSON array of 3-D wire events from r — the
// request body format of mfpd's events endpoint on a 3-D mesh. See
// kernel.DecodeEvents.
func DecodeEvents(r io.Reader) ([]Event, error) {
	return kernel.DecodeEvents[grid3.Coord](r)
}

// SnapshotOf builds the snapshot of a static fault set in one shot: a
// fresh engine fed every fault as an arrival event.
func SnapshotOf(m grid3.Mesh, faults *nodeset3.Set) (*Snapshot, error) {
	e, err := New(m)
	if err != nil {
		return nil, err
	}
	return kernel.Seed(e, faults)
}

// cuboids is the kernel.BlockModel of the 3-D engine: the union of
// component bounding cuboids (mfp3d's DisabledCuboid), maintained
// incrementally. The model tracks one grid3.Box per live component, keyed
// by the component's seed (Set.FirstIndex — stable and unique across the
// disjoint component sets), and keeps the union rasterized in a persistent
// bitset that every event patches with word-parallel row fills
// (mfp3d.RasterizeBox / ClearBox) instead of re-rasterizing every
// component at snapshot publication:
//
//   - Grow is exact without looking at any node set: bounding boxes
//     compose under union, so the merged component's cuboid is the union
//     of the replaced components' cuboids extended by the new fault. The
//     replaced cuboids are already rasterized and row fills are
//     idempotent, so ORing the (possibly grown) new cuboid patches the
//     union in place — and when a single component absorbs a fault that
//     lands inside its cuboid, nothing needs touching at all.
//
//   - Shrink recomputes the fragments' bounds by re-scanning just those
//     fragments (the only per-node work in the model; fragments hold only
//     faults, so the scan is tiny), then re-rasterizes only the rows the
//     dying component's cuboid covered: clear that cuboid, then re-fill
//     its intersection with every surviving cuboid that overlaps it. Bits
//     outside the old cuboid are never touched. An interior repair — one
//     fragment with unchanged bounds — skips the re-rasterization.
//
// The maintained bitset therefore always equals the union of the tracked
// boxes, which is byte-identical to batch mfp3d.Build's DisabledCuboid;
// the differential tests pin this after every event.
type cuboids struct {
	mesh    grid3.Mesh
	unsafe  *nodeset3.Set     // persistent union of boxes, patched per event
	boxes   map[int]grid3.Box // live component cuboids, keyed by seed
	metrics cuboidMetrics

	// Pre-bound fragment scan: nodeset3.Bounds builds a fresh closure per
	// call, which the steady-state apply path cannot afford (see the 3-D
	// TestApplyBatchAllocsPerEvent gate), so the model keeps one closure
	// accumulating into scanBox.
	scanBox grid3.Box
	scanFn  func(int)
}

// newCuboids ignores the engine's fault set (the boxes carry all needed
// state) and its scratch pool: the maintained union lives across events as
// a field, which the pool's transient-use contract forbids.
func newCuboids(m grid3.Mesh, _ *nodeset3.Set, _ *kernel.Scratch[grid3.Coord, grid3.Mesh]) kernel.BlockModel[grid3.Coord, grid3.Mesh] {
	u := &cuboids{
		mesh:    m,
		unsafe:  nodeset3.New(m),
		boxes:   make(map[int]grid3.Box),
		metrics: newCuboidMetrics(),
	}
	u.scanFn = func(i int) { u.scanBox = u.scanBox.Extend(m.CoordAt(i)) }
	return u
}

// bounds measures a node set's cuboid by re-scan, the allocation-free
// counterpart of nodeset3.Bounds.
func (u *cuboids) bounds(s *nodeset3.Set) grid3.Box {
	u.scanBox = grid3.EmptyBox()
	s.EachIndex(u.scanFn)
	return u.scanBox
}

// Grow incorporates a fault arrival: the cuboids of the merged-away
// components (already rasterized) compose into the new component's cuboid.
func (u *cuboids) Grow(c grid3.Coord, merged []*nodeset3.Set, result *nodeset3.Set) {
	box := grid3.EmptyBox()
	single := grid3.EmptyBox()
	for _, m := range merged {
		old, ok := u.boxes[m.FirstIndex()]
		if !ok {
			panic(fmt.Sprintf("engine3: merged component with seed %d has no cuboid", m.FirstIndex()))
		}
		delete(u.boxes, m.FirstIndex())
		box = box.Union(old)
		single = old
	}
	grown := box.Extend(c)
	u.boxes[result.FirstIndex()] = grown
	if len(merged) == 1 && grown == single {
		return // the fault landed inside its component's cuboid
	}
	u.metrics.deltaRows.Add(uint64(mfp3d.RasterizeBox(u.unsafe, grown)))
}

// Shrink incorporates a repair: the dying component's cuboid is dropped,
// the fragments' cuboids are measured by re-scan, and only the dropped
// cuboid's rows are re-rasterized.
func (u *cuboids) Shrink(c grid3.Coord, removed *nodeset3.Set, fragments []*nodeset3.Set) {
	oldSeed := removed.FirstIndex()
	old, ok := u.boxes[oldSeed]
	if !ok {
		panic(fmt.Sprintf("engine3: shrunk component with seed %d has no cuboid", oldSeed))
	}
	delete(u.boxes, oldSeed)
	unchanged := false
	for _, f := range fragments {
		b := u.bounds(f)
		u.boxes[f.FirstIndex()] = b
		unchanged = len(fragments) == 1 && b == old
	}
	if unchanged {
		return // interior repair: the surviving fragment keeps the cuboid
	}
	rows := mfp3d.ClearBox(u.unsafe, old)
	for _, b := range u.boxes {
		rows += mfp3d.RasterizeBox(u.unsafe, b.Intersect(old))
	}
	u.metrics.rebuildRows.Add(uint64(rows))
}

// Unsafe hands the engine a copy of the maintained union; the component
// list is not needed, the union is already current. (The copy is the
// publish-time cost — one memcpy — replacing the full re-rasterization of
// every component the stateless model paid here.)
func (u *cuboids) Unsafe(_ []*nodeset3.Set) *nodeset3.Set { return u.unsafe.Clone() }
