package main

// The output check. Every run ends by comparing the server's answers with
// the benchmark's own batch constructions over the fault sets it tracked:
// core.Construct for 2-D meshes and mfp3d.Build for 3-D ones, plus a
// sample of route and status replies against a local engine.SnapshotOf.
// Any mismatch fails the run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset"
	"repro/internal/nodeset3"
	"repro/internal/routing"
)

func (ms meshSpec) mesh2() grid.Mesh  { return grid.New(ms.w, ms.h) }
func (ms meshSpec) mesh3() grid3.Mesh { return grid3.New(ms.w, ms.h, ms.d) }

// faultSet2 is mesh ms's base population plus pending (-1 for none).
func faultSet2(ms meshSpec, pending int) *nodeset.Set {
	s := nodeset.New(ms.mesh2())
	for _, n := range ms.faults {
		s.AddIndex(n)
	}
	if pending >= 0 {
		s.AddIndex(pending)
	}
	return s
}

func faultSet3(ms meshSpec, pending int) *nodeset3.Set {
	s := nodeset3.New(ms.mesh3())
	for _, n := range ms.faults {
		s.AddIndex(n)
	}
	if pending >= 0 {
		s.AddIndex(pending)
	}
	return s
}

// oracle builds and caches local snapshots per (mesh, pending) state.
type oracle struct {
	w      *workload
	snaps  map[[2]int]*engine.Snapshot
	plans  map[[2]int]*routing.Planner
	snaps3 map[[2]int]*engine3.Snapshot
}

func newOracle(w *workload) *oracle {
	return &oracle{w: w, snaps: map[[2]int]*engine.Snapshot{}, plans: map[[2]int]*routing.Planner{}, snaps3: map[[2]int]*engine3.Snapshot{}}
}

func (or *oracle) snapshot(mesh, pending int) (*engine.Snapshot, error) {
	k := [2]int{mesh, pending}
	if s, ok := or.snaps[k]; ok {
		return s, nil
	}
	ms := or.w.meshes[mesh]
	s, err := engine.SnapshotOf(ms.mesh2(), faultSet2(ms, pending))
	if err != nil {
		return nil, err
	}
	or.snaps[k] = s
	return s, nil
}

func (or *oracle) planner(mesh, pending int) (*routing.Planner, error) {
	k := [2]int{mesh, pending}
	if p, ok := or.plans[k]; ok {
		return p, nil
	}
	s, err := or.snapshot(mesh, pending)
	if err != nil {
		return nil, err
	}
	p := routing.NewPlanner(s)
	or.plans[k] = p
	return p, nil
}

func (or *oracle) snapshot3(mesh, pending int) (*engine3.Snapshot, error) {
	k := [2]int{mesh, pending}
	if s, ok := or.snaps3[k]; ok {
		return s, nil
	}
	ms := or.w.meshes[mesh]
	s, err := engine3.SnapshotOf(ms.mesh3(), faultSet3(ms, pending))
	if err != nil {
		return nil, err
	}
	or.snaps3[k] = s
	return s, nil
}

// routeStatus is the HTTP status mfpd answers a routing outcome with.
func routeStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, routing.ErrBlockedEndpoint):
		return http.StatusConflict
	case errors.Is(err, routing.ErrBorderRegion), errors.Is(err, routing.ErrHopBudget):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// checkRoute compares one recorded route reply with Planner.Route.
func (or *oracle) checkRoute(rec routeRecord) error {
	p, err := or.planner(rec.o.mesh, rec.o.pending)
	if err != nil {
		return err
	}
	ms := or.w.meshes[rec.o.mesh]
	src, dst := ms.mesh2().CoordAt(rec.o.node), ms.mesh2().CoordAt(rec.o.dst)
	route, rerr := p.Route(src, dst)
	if want := routeStatus(rerr); want != rec.status {
		return fmt.Errorf("route %v->%v on %s: status %d, oracle %d (%v)", src, dst, ms.name, rec.status, want, rerr)
	}
	if rerr != nil {
		return nil
	}
	path := route.Path()
	if route.Length() != rec.length || route.AbnormalHops != rec.abnormal || len(path) != len(rec.path) {
		return fmt.Errorf("route %v->%v on %s: length %d abnormal %d, oracle %d %d", src, dst, ms.name, rec.length, rec.abnormal, route.Length(), route.AbnormalHops)
	}
	for i, c := range path {
		if ms.mesh2().Index(c) != rec.path[i] {
			return fmt.Errorf("route %v->%v on %s: hop %d differs from the oracle's", src, dst, ms.name, i)
		}
	}
	return nil
}

func (or *oracle) checkStatus(rec statusRecord) error {
	ms := or.w.meshes[rec.o.mesh]
	var want string
	if ms.d > 0 {
		s, err := or.snapshot3(rec.o.mesh, rec.o.pending)
		if err != nil {
			return err
		}
		want = s.Class(ms.mesh3().CoordAt(rec.o.node)).String()
	} else {
		s, err := or.snapshot(rec.o.mesh, rec.o.pending)
		if err != nil {
			return err
		}
		want = s.Class(ms.mesh2().CoordAt(rec.o.node)).String()
	}
	if want != rec.class {
		return fmt.Errorf("status of node %d on %s: %q, oracle %q", rec.o.node, ms.name, rec.class, want)
	}
	return nil
}

// polygonsReply is the polygons endpoint's body; z is absent on 2-D.
type polygonsReply struct {
	Polygons []struct {
		Faults  []struct{ X, Y, Z int } `json:"faults"`
		Polygon []struct{ X, Y, Z int } `json:"polygon"`
	} `json:"polygons"`
}

// checkPolygons fetches mesh m's polygons and compares them, component by
// component in seed order, with the batch construction over the tracked
// fault set.
func checkPolygons(c *client, w *workload, m, pending int) error {
	ms := w.meshes[m]
	status, body, _, err := c.do(http.MethodGet, meshPath(ms)+"/polygons", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("polygons of %s: status %d, %v", ms.name, status, err)
	}
	var got polygonsReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("polygons of %s: %w", ms.name, err)
	}
	var comps, polys [][]int
	if ms.d > 0 {
		ref := mfp3d.Build(ms.mesh3(), faultSet3(ms, pending))
		for i := range ref.Components {
			comps = append(comps, indices(ref.Components[i]))
			polys = append(polys, indices(ref.Polytopes[i]))
		}
	} else {
		ref := core.Construct(ms.mesh2(), faultSet2(ms, pending), core.Options{Workers: 1})
		for i := range ref.Minimum.Components {
			comps = append(comps, indices(ref.Minimum.Components[i].Nodes))
			polys = append(polys, indices(ref.Minimum.Polygons[i]))
		}
	}
	if len(got.Polygons) != len(polys) {
		return fmt.Errorf("polygons of %s: %d components, oracle %d", ms.name, len(got.Polygons), len(polys))
	}
	for i, p := range got.Polygons {
		if !sameNodes(ms, p.Faults, comps[i]) || !sameNodes(ms, p.Polygon, polys[i]) {
			return fmt.Errorf("polygons of %s: component %d differs from the oracle's", ms.name, i)
		}
	}
	return nil
}

func indices[C any, T kernel.Topology[C]](s *kernel.Set[C, T]) []int {
	var out []int
	s.EachIndex(func(i int) { out = append(out, i) })
	return out
}

func sameNodes(ms meshSpec, got []struct{ X, Y, Z int }, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, c := range got {
		if ms.index(c.X, c.Y, c.Z) != want[i] {
			return false
		}
	}
	return true
}

// checkStats compares every mesh's shard stats with what the phase sent:
// one preload plus one submission per write, one planner lookup per route
// plus the set-up route, and the tracked fault count.
func checkStats(c *client, w *workload, p *phase, pending []int) error {
	status, body, _, err := c.do(http.MethodGet, "/v1/meshes", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("list meshes: status %d, %v", status, err)
	}
	var list struct {
		Meshes []struct {
			Name         string `json:"name"`
			Requests     uint64 `json:"requests"`
			RouteQueries uint64 `json:"route_queries"`
			Faults       int    `json:"faults"`
		} `json:"meshes"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("list meshes: %w", err)
	}
	writes, routes := make([]uint64, len(w.meshes)), make([]uint64, len(w.meshes))
	for _, o := range p.ops {
		switch {
		case o.kind.isWrite():
			writes[o.mesh]++
		case o.kind == opRoute:
			routes[o.mesh]++
		}
	}
	byName := map[string]int{}
	for m, ms := range w.meshes {
		byName[ms.name] = m
	}
	if len(list.Meshes) != len(w.meshes) {
		return fmt.Errorf("list meshes: %d meshes, want %d", len(list.Meshes), len(w.meshes))
	}
	for _, st := range list.Meshes {
		m, ok := byName[st.Name]
		if !ok {
			return fmt.Errorf("list meshes: unexpected mesh %q", st.Name)
		}
		ms := w.meshes[m]
		faults := len(ms.faults)
		if pending[m] >= 0 {
			faults++
		}
		wantRoutes := uint64(0)
		if ms.d == 0 {
			wantRoutes = routes[m] + 1
		}
		if st.Requests != writes[m]+1 || st.RouteQueries != wantRoutes || st.Faults != faults {
			return fmt.Errorf("stats of %s: requests %d route_queries %d faults %d, want %d %d %d",
				ms.name, st.Requests, st.RouteQueries, st.Faults, writes[m]+1, wantRoutes, faults)
		}
	}
	return nil
}

// verify runs the oracle over a finished phase: the sampled replies, the
// shard stats, then every mesh's final polygons. pending is each mesh's
// final write-node.
func verify(c *client, w *workload, p *phase, pending []int) error {
	if err := checkStats(c, w, p, pending); err != nil {
		return err
	}
	or := newOracle(w)
	for _, rec := range p.routes {
		if err := or.checkRoute(rec); err != nil {
			return err
		}
	}
	for _, rec := range p.statuses {
		if err := or.checkStatus(rec); err != nil {
			return err
		}
	}
	for m := range w.meshes {
		if err := checkPolygons(c, w, m, pending[m]); err != nil {
			return err
		}
	}
	return nil
}
