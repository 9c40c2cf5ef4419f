package main

// The traced run. After the end-to-end phase (tracing off), the same
// request sequence is replayed in this process as rungs over the layers'
// public functions, one pass per rung so that only one layer's state is
// resident at a time:
//
//	engine.DecodeEvents       the request body
//	Engine.Apply              on a standalone engine
//	wal.Log.Append            on a standalone log fed the same batches
//	Shard.Apply/Read/Planner  on an in-memory manager, then a durable one
//	routing.NewPlanner/Route  on the manager's snapshots
//
// Every call is one span, kept in memory and written out at the end. A
// layer's self time is its rung minus the rungs below it for the same
// request; what the end-to-end p50 has beyond the rung sum is HTTP/JSON
// time plus tracing overhead.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/wal"
)

// layer names a rung.
type layer uint8

const (
	lDecode layer = iota
	lEngineApply
	lWALAppend
	lShardApply
	lShardApplyWAL
	lShardRead
	lShardRoute
	lPlannerBuild
	lRoute
	numLayers
)

var layerNames = [numLayers]string{
	"engine.decode", "engine.apply", "wal.append", "shard.apply", "shard.apply_wal",
	"shard.read", "shard.route", "routing.planner_build", "routing.route",
}

// span is one traced call; req is the request's index in the sequence,
// start and end are ns since the trace began.
type span struct {
	req        int32
	layer      layer
	start, end int64
}

type tracer struct {
	t0    time.Time
	spans []span
	// dur[l][i] is request i's duration on rung l in ns, NaN if the
	// request does not pass that rung.
	dur [numLayers][]float64
	// regions counts the disabled regions of every planner the routing
	// rung built.
	regions []float64
}

func newTracer(n int) *tracer {
	t := &tracer{t0: time.Now()}
	for l := range t.dur {
		t.dur[l] = make([]float64, n)
		for i := range t.dur[l] {
			t.dur[l][i] = math.NaN()
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// done closes the span of request req on rung l opened at start.
func (t *tracer) done(req int, l layer, start int64) {
	end := t.now()
	t.spans = append(t.spans, span{int32(req), l, start, end})
	t.dur[l][req] = float64(end - start)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string, ops []op) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"req":%d,"op":%q,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.req, ops[s.req].kind, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungs are the pure-kernel rungs of one mesh, generic over dimension.
type rungs[C any, T kernel.Topology[C]] struct {
	mesh      T
	ms        meshSpec
	decodeFn  func(body []byte) ([]kernel.Event[C], error)
	newEngine func(T) (*kernel.Engine[C, T], error)
}

func (r rungs[C, T]) preload() []kernel.Event[C] {
	ev, err := r.decodeFn(eventsBody(r.ms, true, r.ms.faults...))
	if err != nil {
		panic(fmt.Sprintf("preload body of %s does not decode: %v", r.ms.name, err))
	}
	return ev
}

func (r rungs[C, T]) decode(t *tracer, i int, body []byte) (any, error) {
	s := t.now()
	ev, err := r.decodeFn(body)
	t.done(i, lDecode, s)
	return ev, err
}

// engineApplier returns an Apply rung over a standalone preloaded engine.
func (r rungs[C, T]) engineApplier() (func(t *tracer, i int, ev any) error, error) {
	e, err := r.newEngine(r.mesh)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.Apply(r.preload()); err != nil {
		return nil, err
	}
	return func(t *tracer, i int, ev any) error {
		s := t.now()
		n, _, err := e.Apply(ev.([]kernel.Event[C]))
		t.done(i, lEngineApply, s)
		if err == nil && n != 1 {
			err = fmt.Errorf("engine applied %d events, want 1", n)
		}
		return err
	}, nil
}

// walAppender returns an Append rung over a fresh log in dir.
func (r rungs[C, T]) walAppender(dir string) (func(t *tracer, i int, ev any) error, func() error, error) {
	meta := wal.Meta{Width: r.ms.w, Height: r.ms.h, Depth: r.ms.d}
	l, err := wal.Create[C](dir, meta)
	if err != nil {
		return nil, nil, err
	}
	version := uint64(len(r.ms.faults))
	if err := l.Append(version, r.preload()); err != nil {
		l.Close()
		return nil, nil, err
	}
	return func(t *tracer, i int, ev any) error {
		version++
		s := t.now()
		err := l.Append(version, ev.([]kernel.Event[C]))
		t.done(i, lWALAppend, s)
		return err
	}, l.Close, nil
}

func rungs2(ms meshSpec) rungs[grid.Coord, grid.Mesh] {
	return rungs[grid.Coord, grid.Mesh]{
		mesh: ms.mesh2(), ms: ms, newEngine: engine.New,
		decodeFn: func(b []byte) ([]engine.Event, error) { return engine.DecodeEvents(bytes.NewReader(b)) },
	}
}

func rungs3(ms meshSpec) rungs[grid3.Coord, grid3.Mesh] {
	return rungs[grid3.Coord, grid3.Mesh]{
		mesh: ms.mesh3(), ms: ms, newEngine: engine3.New,
		decodeFn: func(b []byte) ([]engine3.Event, error) { return engine3.DecodeEvents(bytes.NewReader(b)) },
	}
}

// meshRungs is one mesh's rungs with the dimension erased.
type meshRungs struct {
	decode func(t *tracer, i int, body []byte) (any, error)
	engine func() (func(t *tracer, i int, ev any) error, error)
	wal    func(dir string) (func(t *tracer, i int, ev any) error, func() error, error)
	// shard creates the mesh on a manager, preloads it and builds its
	// first planner, and returns its per-op rung.
	shard func(mgr *shard.Manager, applyLayer layer) (rungFn, error)
}

// shardOps is what the shard rung calls on one created shard. The shard
// types are generic over dimension but not exported, so the calls are
// closures.
type shardOps[C any, T kernel.Topology[C]] struct {
	apply func([]kernel.Event[C]) error
	read  func() (*kernel.Snapshot[C, T], error)
	// planner builds the first planner after the preload, and route
	// replays a route request; both are nil in 3-D, which has no routing.
	planner func() error
	route   rungFn
}

// erase returns r's rungs with the dimension erased; create makes the
// mesh's shard on a manager.
func (r rungs[C, T]) erase(create func(*shard.Manager) (shardOps[C, T], error)) meshRungs {
	return meshRungs{decode: r.decode, engine: r.engineApplier, wal: r.walAppender,
		shard: func(mgr *shard.Manager, al layer) (rungFn, error) {
			sh, err := create(mgr)
			if err != nil {
				return nil, err
			}
			if err := sh.apply(r.preload()); err != nil {
				return nil, err
			}
			if sh.planner != nil {
				if err := sh.planner(); err != nil {
					return nil, err
				}
			}
			return func(t *tracer, i int, o op, ev any) error {
				s := t.now()
				switch {
				case o.kind.isWrite():
					err := sh.apply(ev.([]kernel.Event[C]))
					t.done(i, al, s)
					return err
				case o.kind == opStatus:
					snap, err := sh.read()
					if err == nil {
						_ = snap.Class(r.mesh.CoordAt(o.node))
					}
					t.done(i, lShardRead, s)
					return err
				case o.kind == opRoute && sh.route != nil:
					return sh.route(t, i, o, ev)
				}
				return nil
			}, nil
		}}
}

func newMeshRungs(ms meshSpec) meshRungs {
	if ms.d > 0 {
		r := rungs3(ms)
		return r.erase(func(mgr *shard.Manager) (shardOps[grid3.Coord, grid3.Mesh], error) {
			sh, err := mgr.Create3(ms.name, r.mesh)
			if err != nil {
				return shardOps[grid3.Coord, grid3.Mesh]{}, err
			}
			return shardOps[grid3.Coord, grid3.Mesh]{
				apply: func(ev []engine3.Event) error { _, err := sh.Apply(ev); return err },
				read: func() (*kernel.Snapshot[grid3.Coord, grid3.Mesh], error) {
					v, err := sh.Read()
					return v.Snapshot, err
				},
			}, nil
		})
	}
	r := rungs2(ms)
	return r.erase(func(mgr *shard.Manager) (shardOps[grid.Coord, grid.Mesh], error) {
		sh, err := mgr.Create(ms.name, r.mesh)
		if err != nil {
			return shardOps[grid.Coord, grid.Mesh]{}, err
		}
		var built *routing.Planner
		builtAt := ^uint64(0)
		return shardOps[grid.Coord, grid.Mesh]{
			apply: func(ev []engine.Event) error { _, err := sh.Apply(ev); return err },
			read: func() (*kernel.Snapshot[grid.Coord, grid.Mesh], error) {
				v, err := sh.Read()
				return v.Snapshot, err
			},
			planner: func() error { _, _, _, err := sh.Planner(); return err },
			route: func(t *tracer, i int, o op, _ any) error {
				src, dst := r.mesh.CoordAt(o.node), r.mesh.CoordAt(o.dst)
				s := t.now()
				p, v, _, err := sh.Planner()
				if err == nil {
					_, _ = p.Route(src, dst) // routing failures are answers, checked by the oracle
				}
				t.done(i, lShardRoute, s)
				if err != nil {
					return err
				}
				// The routing rungs: a standalone planner per snapshot
				// version, and the query on it.
				if v.Version != builtAt {
					s = t.now()
					built = routing.NewPlanner(v.Snapshot)
					t.done(i, lPlannerBuild, s)
					builtAt = v.Version
					t.regions = append(t.regions, float64(len(built.Regions())))
				}
				s = t.now()
				_, _ = built.Route(src, dst)
				t.done(i, lRoute, s)
				return nil
			},
		}, nil
	})
}

// rungFn replays request i (op o, decoded events ev) on one mesh's rung.
type rungFn func(t *tracer, i int, o op, ev any) error

// pass builds every mesh's rung with mk and replays p's requests through
// them in sequence order; writesOnly skips the reads.
func pass(w *workload, p *phase, t *tracer, events []any, writesOnly bool, mk func(m int) (rungFn, error)) error {
	fns, err := build(w, mk)
	if err != nil {
		return err
	}
	return replayOps(p, t, events, writesOnly, fns)
}

// build makes every mesh's rung.
func build(w *workload, mk func(m int) (rungFn, error)) ([]rungFn, error) {
	fns := make([]rungFn, len(w.meshes))
	for m := range w.meshes {
		fn, err := mk(m)
		if err != nil {
			return nil, err
		}
		fns[m] = fn
	}
	return fns, nil
}

// replayOps replays p's requests through the per-mesh rungs fns.
func replayOps(p *phase, t *tracer, events []any, writesOnly bool, fns []rungFn) error {
	for i, o := range p.ops {
		if writesOnly && !o.kind.isWrite() {
			continue
		}
		if err := fns[o.mesh](t, i, o, events[i]); err != nil {
			return fmt.Errorf("request %d (%s): %w", i, o.kind, err)
		}
	}
	return nil
}

// registry reads this process's own metrics registry, which the
// in-process rungs report into.
func registry() (counters, error) {
	var b bytes.Buffer
	if err := obs.Default.WriteText(&b); err != nil {
		return nil, err
	}
	return parseMetrics(&b)
}

// replay runs the traced passes over phase p's requests and returns the
// per-layer metrics. e2e holds the end-to-end metrics of the same phase
// and counts the counter deltas scraped from mfpd around it.
func replay(w *workload, p *phase, e2e map[string]metric, counts counters, dir, work string, seed uint64) (map[string]metric, error) {
	mr := make([]meshRungs, len(w.meshes))
	for m, ms := range w.meshes {
		mr[m] = newMeshRungs(ms)
	}
	t := newTracer(len(p.ops))
	events := make([]any, len(p.ops))

	// Rung 1: decode every write body.
	for i, o := range p.ops {
		if !o.kind.isWrite() {
			continue
		}
		_, _, body := request(w, o)
		ev, err := mr[o.mesh].decode(t, i, body)
		if err != nil {
			return nil, fmt.Errorf("trace decode: %w", err)
		}
		events[i] = ev
	}
	// Rungs 2 and 4, interleaved per request so that both see the same
	// cache and heap conditions: a standalone engine and an in-memory
	// manager, with the order alternating between requests.
	mgr := shard.NewManager(shard.Config{})
	err := pass(w, p, t, events, false, func(m int) (rungFn, error) {
		engineApply, err := mr[m].engine()
		if err != nil {
			return nil, err
		}
		shardOp, err := mr[m].shard(mgr, lShardApply)
		if err != nil {
			return nil, err
		}
		return func(t *tracer, i int, o op, ev any) error {
			if !o.kind.isWrite() {
				return shardOp(t, i, o, ev)
			}
			first, second := func() error { return engineApply(t, i, ev) }, func() error { return shardOp(t, i, o, ev) }
			if i%2 == 1 {
				first, second = second, first
			}
			if err := first(); err != nil {
				return err
			}
			return second()
		}, nil
	})
	mgr.Close()
	if err != nil {
		return nil, fmt.Errorf("trace engine and shard: %w", err)
	}
	// Rung 3: standalone logs.
	var closers []func() error
	err = pass(w, p, t, events, true, func(m int) (rungFn, error) {
		appendFn, closer, err := mr[m].wal(filepath.Join(dir, "trace-wal", w.meshes[m].name))
		if err != nil {
			return nil, err
		}
		closers = append(closers, closer)
		return func(t *tracer, i int, _ op, ev any) error { return appendFn(t, i, ev) }, nil
	})
	for _, c := range closers {
		if cerr := c(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("trace wal: %w", err)
	}
	// Rung 5: a durable manager, writes only. The end-to-end phase runs
	// in memory, so the WAL counts come from this pass, read from this
	// process's own metrics registry around its replay (after the creates
	// and preloads).
	mgr = shard.NewManager(shard.Config{DataDir: filepath.Join(dir, "trace-shard")})
	var walBefore, walAfter counters
	fns, err := build(w, func(m int) (rungFn, error) { return mr[m].shard(mgr, lShardApplyWAL) })
	if err == nil {
		walBefore, err = registry()
	}
	if err == nil {
		err = replayOps(p, t, events, true, fns)
	}
	if err == nil {
		walAfter, err = registry()
	}
	mgr.Close()
	if err != nil {
		return nil, fmt.Errorf("trace durable shard: %w", err)
	}
	walCounts := delta(walBefore, walAfter)
	if err := os.MkdirAll(filepath.Join(work, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), p.ops); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return layerMetrics(w, p, t, e2e, counts, walCounts)
}
