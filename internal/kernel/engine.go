package kernel

// The dimension-generic incremental engine. This is the paper's per-
// component machinery run under fault churn: a new fault only ever grows
// one component or merges a few neighbouring ones (the merge process of
// Section 3), and a repair only ever shrinks or splits the one component
// it belonged to — so the engine re-closes exactly the touched component
// and reuses every other component's cached polygon. internal/engine
// instantiates it for the paper's 2-D mesh (with the scheme-1 faulty-block
// fixpoint as the block model), internal/engine3 for 3-D meshes (with the
// bounding-cuboid block model); the maintenance logic lives only here.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Op is the kind of a fault event.
type Op uint8

const (
	// Add marks a node faulty (a fault arrival).
	Add Op = iota
	// Clear marks a faulty node repaired (a fault departure).
	Clear
)

// String returns the wire name of the op ("add" or "clear").
func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Clear:
		return "clear"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp converts a wire name back to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "add":
		return Add, nil
	case "clear":
		return Clear, nil
	}
	return 0, fmt.Errorf("engine: unknown op %q (want add or clear)", s)
}

// Event is one fault arrival or repair over coordinate type C. It is the
// unit of the batched event streams mfpd accepts; see MarshalJSON for the
// wire format.
type Event[C any] struct {
	Op   Op
	Node C
}

// String renders the event like "add(3,4)".
func (e Event[C]) String() string { return fmt.Sprintf("%s%v", e.Op, e.Node) }

// BlockModel maintains a topology's faulty-block ("unsafe") construction
// alongside the engine's polygons. The 2-D model is labelling scheme 1
// (rectangular faulty blocks kept at a fixpoint by local propagation); the
// 3-D analogue is the union of component bounding cuboids, maintained
// incrementally from per-component bounds. The engine calls Grow/Shrink
// under its lock right after the fault set changes, and Unsafe at snapshot
// publication with the current components (index order).
//
// Grow and Shrink receive the touched components so stateful models can
// key per-component state by seed (Set.FirstIndex) instead of rescanning
// the component list. The component sets passed to them are owned by the
// engine and valid only for the duration of the call — unpublished sets
// are recycled into the scratch pool right after — so models must copy
// whatever they need (bounds, seeds) and never retain the sets.
type BlockModel[C any, T Topology[C]] interface {
	// Grow incorporates a fault arrival at c (already in the fault set).
	// merged lists the node sets of the components the arrival merged away
	// (empty when c seeds a new component) and result is the component
	// that replaced them, c included.
	Grow(c C, merged []*Set[C, T], result *Set[C, T])
	// Shrink incorporates a repair at c (already removed from the fault
	// set). removed is the node set of the component that contained c
	// (c still included) and fragments are the components it split into —
	// empty when c was the component's last fault.
	Shrink(c C, removed *Set[C, T], fragments []*Set[C, T])
	// Unsafe returns a fresh unsafe set for the current state; comps are
	// the current faulty components in seed order. The result is owned by
	// the caller (it is published in an immutable snapshot).
	Unsafe(comps []*Set[C, T]) *Set[C, T]
}

// entry is the engine's cache line: one faulty component and its minimum
// faulty polygon (polytope). Both sets are immutable once the entry is
// built — churn replaces entries, it never mutates them — which is what
// lets snapshots share them. poly may be the same set as nodes when the
// component is already convex.
type entry[C any, T Topology[C]] struct {
	nodes *Set[C, T]
	poly  *Set[C, T]
	// seed is the component's smallest dense node index, the sort key that
	// keeps entries in the same deterministic order a from-scratch
	// component search would produce, so snapshots are byte-identical to a
	// full rebuild.
	seed int
	// published marks entries a snapshot has shared. Only unpublished
	// entries — created and replaced within one batch — may recycle their
	// sets into the scratch free list; published sets belong to snapshots
	// forever.
	published bool
}

// Engine maintains the fault-region constructions under a stream of fault
// events. All methods are safe for concurrent use: mutations serialize on
// an internal lock while Snapshot is wait-free.
type Engine[C any, T Topology[C]] struct {
	mesh    T
	metrics engineMetrics

	mu      sync.Mutex
	faults  *Set[C, T] // current fault set (mutated in place)
	blocks  BlockModel[C, T]
	entries []*entry[C, T] // sorted by seed
	version uint64         // counts applied (state-changing) events

	// Reusable working memory of the apply path, all guarded by mu: the
	// geometry scratch (flood bookkeeping, span tables, set free list) and
	// the small per-event buffers. Steady-state batches apply without
	// allocating; see BenchmarkEngineApplyAllocs.
	scr         *Scratch[C, T]
	neigh       []C
	neighIdx    []int
	merged      []*entry[C, T]
	mergedSets  []*Set[C, T]
	deadOne     [1]*entry[C, T]
	freeEntries []*entry[C, T]

	snap atomic.Pointer[Snapshot[C, T]]
}

// NewEngine returns an engine over an empty fault set, with the given
// block-model factory (called with the engine's live fault set, which the
// model may read but must not mutate, and the engine's scratch, through
// which rasterizing models may recycle transient sets — pooled sets must
// be put back before the call returns, never stored). Topology
// restrictions — the 2-D engine rejects tori, for example — belong in the
// instantiating package's constructor.
func NewEngine[C any, T Topology[C]](mesh T, blocks func(T, *Set[C, T], *Scratch[C, T]) BlockModel[C, T]) (*Engine[C, T], error) {
	if mesh.Size() == 0 {
		return nil, fmt.Errorf("engine: empty mesh")
	}
	e := &Engine[C, T]{
		mesh:    mesh,
		metrics: newEngineMetrics(mesh.Axes()),
		faults:  NewSet[C](mesh),
		scr:     NewScratch[C](mesh),
	}
	e.blocks = blocks(mesh, e.faults, e.scr)
	e.publish(true)
	return e, nil
}

// Mesh returns the mesh the engine maintains.
func (e *Engine[C, T]) Mesh() T { return e.mesh }

// AddFault marks node faulty and reports whether the state changed (false
// for a duplicate arrival). It panics when node lies outside the mesh; use
// Apply for validated event streams.
func (e *Engine[C, T]) AddFault(node C) bool {
	n, _, err := e.Apply([]Event[C]{{Op: Add, Node: node}})
	if err != nil {
		panic(err.Error())
	}
	return n == 1
}

// ClearFault marks node repaired and reports whether the state changed
// (false when the node was not faulty). It panics when node lies outside
// the mesh; use Apply for validated event streams.
func (e *Engine[C, T]) ClearFault(node C) bool {
	n, _, err := e.Apply([]Event[C]{{Op: Clear, Node: node}})
	if err != nil {
		panic(err.Error())
	}
	return n == 1
}

// ValidateEvents checks that every event lies inside the mesh and carries
// a known op, returning the first violation. Apply runs the same check on
// its whole batch; callers that coalesce independently submitted batches
// (internal/shard) validate each submission separately so one bad batch
// fails alone instead of failing its innocent neighbours.
func ValidateEvents[C any, T Topology[C]](m T, events []Event[C]) error {
	for _, ev := range events {
		if !m.Contains(ev.Node) {
			return fmt.Errorf("engine: %v outside %v", ev, m)
		}
		if ev.Op != Add && ev.Op != Clear {
			return fmt.Errorf("engine: invalid op %d", uint8(ev.Op))
		}
	}
	return nil
}

// Replay applies events to a plain fault set and returns how many changed
// it — the same counting semantics as Apply's applied result, without an
// engine. It is the shared reference walk: the shard layer uses it to keep
// its persisted fault sets (and per-submission counts) in lockstep with
// the engine, and the differential harnesses use it to maintain the
// expected state they verify engines against. Events with an invalid op
// are ignored, never misread as a Clear; run ValidateEvents first when
// they must be rejected instead.
func Replay[C any, T Topology[C]](faults *Set[C, T], events ...Event[C]) int {
	changed := 0
	for _, ev := range events {
		switch ev.Op {
		case Add:
			if faults.Add(ev.Node) {
				changed++
			}
		case Clear:
			if faults.Remove(ev.Node) {
				changed++
			}
		}
	}
	return changed
}

// Seed feeds every node of faults to e as one batch of arrival events and
// returns the snapshot it publishes. Because an engine's state is a pure
// function of its fault set, seeding a fresh engine reproduces exactly the
// constructions of any engine that reached the same fault set by another
// event history: it is how a static fault set becomes a snapshot, how a
// shard rebuilds after eviction, and how recovery loads a replayed WAL.
func Seed[C any, T Topology[C]](e *Engine[C, T], faults *Set[C, T]) (*Snapshot[C, T], error) {
	events := make([]Event[C], 0, faults.Len())
	faults.Each(func(c C) { events = append(events, Event[C]{Op: Add, Node: c}) })
	_, snap, err := e.Apply(events)
	return snap, err
}

// Apply applies a batch of events atomically — concurrent readers observe
// either the snapshot before the whole batch or after it, never a prefix —
// and returns how many events changed the state (duplicate adds and clears
// of non-faulty nodes are no-ops that are skipped, not errors) together
// with the snapshot the batch produced. The snapshot is captured under the
// same lock, so it describes exactly this batch's outcome even when other
// batches land concurrently; Engine.Snapshot would race past them. An
// event outside the mesh fails the whole batch before any of it is
// applied.
func (e *Engine[C, T]) Apply(events []Event[C]) (applied int, snap *Snapshot[C, T], err error) {
	if err := ValidateEvents(e.mesh, events); err != nil {
		return 0, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	hadClear := false
	for _, ev := range events {
		changed := false
		if ev.Op == Add {
			changed = e.addLocked(ev.Node)
		} else {
			changed = e.clearLocked(ev.Node)
			hadClear = hadClear || changed
		}
		if changed {
			e.version++
			applied++
		}
	}
	if applied > 0 {
		e.metrics.eventsApplied.Add(uint64(applied))
		e.publish(hadClear)
	}
	return applied, e.snap.Load(), nil
}

// addLocked is the arrival path: merge the new fault with every component
// it is adjacent to (the merge process of Section 3, under the topology's
// Definition 2 adjacency) and recompute that one component's closure.
func (e *Engine[C, T]) addLocked(c C) bool {
	if !e.faults.Add(c) {
		return false
	}

	// The components the new fault touches are those owning one of its
	// adjacent nodes. Component node sets are disjoint, so collecting
	// owners over the few neighbours finds each at most once per
	// neighbour. Neighbour indices are resolved once up front: the
	// entries×neighbours probe loop is the arrival hot path.
	e.neigh = e.mesh.Adjacent(c, e.neigh[:0])
	e.neighIdx = e.neighIdx[:0]
	for _, n := range e.neigh {
		e.neighIdx = append(e.neighIdx, e.mesh.Index(n))
	}
	merged := e.merged[:0]
	for _, en := range e.entries {
		for _, i := range e.neighIdx {
			if en.nodes.HasIndex(i) {
				merged = append(merged, en)
				break
			}
		}
	}

	nodes := e.scr.take(e.mesh)
	nodes.AddIndex(e.mesh.Index(c))
	e.mergedSets = e.mergedSets[:0]
	for _, en := range merged {
		nodes.UnionWith(en.nodes)
		e.mergedSets = append(e.mergedSets, en.nodes)
	}
	// The block model sees the merge before removeEntries may recycle the
	// replaced components' sets: Grow's contract is that merged/result are
	// readable only during the call.
	e.blocks.Grow(c, e.mergedSets, nodes)
	e.removeEntries(merged)
	e.merged = merged[:0]
	poly, passes := e.scr.Closure(nodes)
	e.insertEntry(e.newEntry(nodes, poly))
	e.metrics.componentsTouched.Add(uint64(len(merged)) + 1)
	e.metrics.closures.Inc()
	e.metrics.closurePasses.Add(uint64(passes))
	return true
}

// clearLocked is the repair path: the cleared fault's component loses one
// node, which may split it into several components (or dissolve it when it
// was the last fault); only those fragments are re-closed.
func (e *Engine[C, T]) clearLocked(c C) bool {
	if !e.faults.Remove(c) {
		return false
	}

	ci := e.mesh.Index(c)
	var owner *entry[C, T]
	for _, en := range e.entries {
		if en.nodes.HasIndex(ci) {
			owner = en
			break
		}
	}
	if owner == nil {
		// Unreachable: every fault is in exactly one component.
		panic(fmt.Sprintf("engine: fault %v has no component", c))
	}
	// Copy the component before removeEntries may recycle its sets.
	remaining := e.scr.take(e.mesh)
	remaining.CopyFrom(owner.nodes)
	remaining.RemoveIndex(ci)
	fragments := e.scr.Regions(remaining)
	// The block model sees the split while the dying component's set is
	// still intact: Shrink's contract is that removed/fragments are
	// readable only during the call.
	e.blocks.Shrink(c, owner.nodes, fragments)
	e.deadOne[0] = owner
	e.removeEntries(e.deadOne[:])
	e.deadOne[0] = nil
	e.metrics.componentsTouched.Inc()
	for _, region := range fragments {
		poly, passes := e.scr.Closure(region)
		e.insertEntry(e.newEntry(region, poly))
		e.metrics.closures.Inc()
		e.metrics.closurePasses.Add(uint64(passes))
	}
	e.scr.put(remaining)
	return true
}

// newEntry builds an entry around a component and its polygon, recycling
// entry structs replaced earlier in the same batch.
func (e *Engine[C, T]) newEntry(nodes, poly *Set[C, T]) *entry[C, T] {
	if n := len(e.freeEntries); n > 0 {
		en := e.freeEntries[n-1]
		e.freeEntries[n-1] = nil
		e.freeEntries = e.freeEntries[:n-1]
		*en = entry[C, T]{nodes: nodes, poly: poly, seed: nodes.FirstIndex()}
		return en
	}
	return &entry[C, T]{nodes: nodes, poly: poly, seed: nodes.FirstIndex()}
}

// removeEntries deletes the given entries from the sorted slice,
// preserving the order of the survivors.
func (e *Engine[C, T]) removeEntries(dead []*entry[C, T]) {
	if len(dead) == 0 {
		return
	}
	isDead := func(en *entry[C, T]) bool {
		for _, d := range dead {
			if en == d {
				return true
			}
		}
		return false
	}
	kept := e.entries[:0]
	for _, en := range e.entries {
		if !isDead(en) {
			kept = append(kept, en)
		}
	}
	for i := len(kept); i < len(e.entries); i++ {
		e.entries[i] = nil
	}
	e.entries = kept
	// Entries replaced within the batch that created them were never
	// shared with a snapshot: their sets go back to the scratch free list
	// and the structs to the entry free list. Published entries stay
	// referenced by snapshots and are simply dropped.
	for _, en := range dead {
		if en.published {
			continue
		}
		if en.poly != en.nodes {
			e.scr.put(en.poly)
		}
		e.scr.put(en.nodes)
		*en = entry[C, T]{}
		e.freeEntries = append(e.freeEntries, en)
	}
}

// insertEntry places en at its seed-sorted position, keeping the entry
// order identical to the index-order seed order a from-scratch component
// search produces.
func (e *Engine[C, T]) insertEntry(en *entry[C, T]) {
	i := sort.Search(len(e.entries), func(i int) bool { return e.entries[i].seed > en.seed })
	e.entries = append(e.entries, nil)
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = en
}

// publish builds the immutable snapshot for the current state and makes it
// the one Snapshot returns. Polygons and components are shared with the
// cache (and with every previous snapshot that saw the same component);
// only the fault set, the disabled union and the block model's unsafe set
// are fresh.
//
// The disabled union was the profiled hot spot of the whole apply path
// (the per-entry OR with per-word popcounts dominated event application on
// meshes with many components), so it is built with count-free ORs and a
// single recount — and for batches that only added faults it starts from
// the previous snapshot's union instead of from scratch: the closure is
// monotone, so the polygon of every component replaced by a merge is
// contained in the merged polygon, and only unpublished (new) polygons
// need ORing on top. Any applied clear can shrink the union and forces the
// full rebuild.
//
//mfplint:owned publish is the one legitimate snapshot writer: it mutates s (and clones prev) strictly before e.snap.Store makes s visible, so no reader can observe the writes.
func (e *Engine[C, T]) publish(hadClear bool) {
	s := &Snapshot[C, T]{
		mesh:     e.mesh,
		version:  e.version,
		faults:   e.faults.Clone(),
		comps:    make([]*Set[C, T], len(e.entries)),
		polygons: make([]*Set[C, T], len(e.entries)),
	}
	prev := e.snap.Load()
	if prev != nil && !hadClear {
		s.disabled = prev.disabled.Clone()
		for _, en := range e.entries {
			if !en.published {
				s.disabled.orWithNoCount(en.poly)
			}
		}
	} else {
		s.disabled = NewSet[C](e.mesh)
		for _, en := range e.entries {
			s.disabled.orWithNoCount(en.poly)
		}
	}
	s.disabled.recount()
	for i, en := range e.entries {
		s.comps[i] = en.nodes
		s.polygons[i] = en.poly
		en.published = true
	}
	s.unsafe = e.blocks.Unsafe(s.comps)
	e.snap.Store(s)
	e.metrics.publishes.Inc()
}

// Snapshot returns the current immutable snapshot. It never blocks, not
// even while a batch is being applied, and the returned snapshot remains
// valid (and consistent) indefinitely.
func (e *Engine[C, T]) Snapshot() *Snapshot[C, T] { return e.snap.Load() }
