// Package engine maintains the paper's fault-region constructions
// incrementally under fault churn. core.Construct is the right tool for a
// static fault set: it rebuilds every model from scratch in one call. A
// long-lived system sees a stream of fault arrivals and repairs instead,
// and rebuilding the whole mesh per event throws away almost all of the
// previous answer — fault events are local, and the paper's own merge
// process shows why: a new fault only ever grows one component or merges a
// few neighbouring ones, and a repair only ever shrinks or splits the one
// component it belonged to.
//
// The engine exploits exactly that structure. It keeps one cached entry per
// faulty component — the component and its minimum faulty polygon (the
// orthogonal convex closure) — plus the scheme-1 unsafe set maintained by
// local fixpoint propagation. AddFault recomputes the closure of the single
// merged component it touches; ClearFault re-splits and re-closes only the
// component that lost the fault; every other component's polygon is reused
// untouched. Snapshots are immutable and share those cached polygons
// copy-on-write, so readers never block writers and a snapshot stays valid
// (and cheap) forever.
//
// Since the kernel refactor, the maintenance machinery itself is the
// dimension-generic kernel.Engine; this package is its 2-D instantiation
// (Engine, Snapshot and Event are kernel types pinned at grid.Mesh) and
// contributes the one genuinely 2-D piece, the scheme-1 faulty-block
// fixpoint of fb.go. The 3-D instantiation is internal/engine3, which
// serves the paper's "higher dimension meshes" future work through the
// same shard and mfpd layers.
//
// The engine covers the models a status query needs: the MFP polygons,
// their disabled union, and the FB unsafe set that distinguishes enabled
// from safe nodes. It does not maintain the FP model, round counts or the
// distributed construction — use core.Construct when those are required,
// or on a torus (the engine is mesh-only, like the distributed solution).
// Every snapshot is differentially tested against a from-scratch
// core.Construct on the same fault set.
package engine

import (
	"fmt"
	"io"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
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

// Event is one fault arrival or repair on a 2-D mesh. It is the unit of
// the batched event streams mfpd accepts; the wire format is
// {"op":"add","x":3,"y":4} (see kernel.Event and grid.Coord's JSON codec).
type Event = kernel.Event[grid.Coord]

// Engine maintains the fault-region constructions of a 2-D mesh under a
// stream of fault events — kernel.Engine pinned at grid.Mesh. All methods
// are safe for concurrent use: mutations serialize on an internal lock
// while Snapshot is wait-free.
type Engine = kernel.Engine[grid.Coord, grid.Mesh]

// Snapshot is one immutable, internally consistent view of a 2-D engine's
// state — kernel.Snapshot pinned at grid.Mesh. Note that Components
// returns the components' node sets; wrap them with component.New when
// bounding boxes are needed.
type Snapshot = kernel.Snapshot[grid.Coord, grid.Mesh]

// New returns an engine over an empty fault set. Tori are rejected: the
// incremental block maintenance relies on mesh boundaries, and the paper's
// distributed construction has the same restriction.
func New(m grid.Mesh) (*Engine, error) {
	if m.Torus {
		return nil, fmt.Errorf("engine: %v not supported (mesh only)", m)
	}
	return kernel.NewEngine(m, newScheme1)
}

// Replay applies events to a plain fault set and returns how many changed
// it — the same counting semantics as Apply's applied result, without an
// engine. See kernel.Replay.
func Replay(faults *nodeset.Set, events ...Event) int {
	return kernel.Replay(faults, events...)
}

// DecodeEvents decodes a JSON array of wire events from r — the request
// body format of mfpd's 2-D events endpoints. See kernel.DecodeEvents.
func DecodeEvents(r io.Reader) ([]Event, error) {
	return kernel.DecodeEvents[grid.Coord](r)
}

// SnapshotOf builds the snapshot of a static fault set in one shot: a
// fresh engine fed every fault as an arrival event. It is the bridge from
// batch-style callers (simulators, benchmarks, tests) to snapshot
// consumers like routing.NewPlanner; long-lived callers should hold an
// Engine and Apply instead.
func SnapshotOf(m grid.Mesh, faults *nodeset.Set) (*Snapshot, error) {
	e, err := New(m)
	if err != nil {
		return nil, err
	}
	return kernel.Seed(e, faults)
}
