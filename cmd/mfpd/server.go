package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/shard"
)

// maxMeshSide bounds admin-created meshes so a single request cannot make
// the service allocate an absurd bitset universe; the manager's MaxMeshes
// bound (-max-meshes) caps what a sequence of requests can accumulate.
// maxMeshNodes additionally bounds the node count, which matters for 3-D
// meshes where three in-range sides can still multiply into gigabytes of
// bitset (every 2-D mesh within maxMeshSide is automatically within it).
const (
	maxMeshSide  = 2048
	maxMeshNodes = 1 << 24
)

// maxEventBody bounds an events request body (~8 MiB, hundreds of
// thousands of events) so an oversized or endless body cannot exhaust the
// service's memory.
const maxEventBody = 8 << 20

// maxRouteBody bounds a route request body, and maxRoutePairs the number
// of pairs one batched request may carry: a batch occupies a worker pool
// until it drains, so its size must stay a unit of scheduling, not a whole
// workload.
const (
	maxRouteBody  = 1 << 20
	maxRoutePairs = 4096
)

// server exposes a shard.Manager over HTTP. Mesh-scoped queries read a
// single shard view up front and answer entirely from it, so every
// response is internally consistent even while event batches land.
//
// The API is versioned under /v1; /healthz and /metrics are
// infrastructure endpoints and stay unversioned.
//
// Routes:
//
//	GET    /healthz
//	GET    /metrics                         Prometheus text metrics (obs.Default)
//	GET    /v1/meshes                       list every mesh with stats
//	POST   /v1/meshes                       create a mesh {"name","width","height"[,"depth"]}
//	DELETE /v1/meshes/{name}                drain and delete a mesh
//	POST   /v1/meshes/{name}/events         apply a JSON array of fault events
//	GET    /v1/meshes/{name}/status?x=&y=   per-node status (&z= on a 3-D mesh)
//	GET    /v1/meshes/{name}/polygons       every component's minimum polygon (polytope in 3-D)
//	POST   /v1/meshes/{name}/route          route messages around the polygons (2-D only)
//	GET    /v1/meshes/{name}/stats          shard + construction metrics
//
// Events, status, polygons and stats are each one handler, generic over
// the mesh's coordinate and topology types; route is the only 2-D-only
// handler and answers 404 on a 3-D mesh.
//
// Route queries are served from a routing planner memoized per shard
// version (see shard.Shard.Planner): concurrent queries at one fault state
// share the preprocessing, and the next fault event invalidates it. The
// per-shard cache hit rate is part of /v1/meshes/{name}/stats.
type server struct {
	mgr *shard.Manager
	// routeSem is the server-wide budget of batch-routing workers (one
	// token per CPU): each batched /route request grabs as many tokens as
	// are free (blocking only for the first) and sizes its RouteAll pool
	// accordingly, so an idle server gives one batch full parallelism
	// while concurrent batches share the machine instead of each spawning
	// a GOMAXPROCS-wide pool of their own.
	routeSem chan struct{}
}

func newServer(mgr *shard.Manager) *server {
	return &server{
		mgr:      mgr,
		routeSem: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// acquireRouteWorkers takes between 1 and want tokens from the route
// budget, blocking only until the first is available. The caller must
// release exactly the returned count.
func (s *server) acquireRouteWorkers(want int) int {
	s.routeSem <- struct{}{}
	got := 1
	for got < want {
		select {
		case s.routeSem <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func (s *server) releaseRouteWorkers(n int) {
	for i := 0; i < n; i++ {
		<-s.routeSem
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch path := r.URL.Path; {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case path == "/metrics":
		obs.Default.Handler().ServeHTTP(w, r)
	case path == "/v1/meshes" || path == "/v1/meshes/":
		s.handleMeshes(w, r)
	case strings.HasPrefix(path, "/v1/meshes/"):
		s.handleMesh(w, r, strings.TrimPrefix(path, "/v1/meshes/"))
	default:
		writeError(w, http.StatusNotFound, codeNotFound, "no route %s (see /v1/meshes)", path)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Error codes carried by the uniform error envelope. Machine-readable and
// stable under /v1: clients branch on the code, humans read the message.
const (
	codeNotFound         = "not_found"
	codeBadRequest       = "bad_request"
	codeMethodNotAllowed = "method_not_allowed"
	codeBodyTooLarge     = "body_too_large"
	codeMeshExists       = "mesh_exists"
	codeMeshClosed       = "mesh_closed"
	codeMeshFailed       = "mesh_failed"
	codeUnknownMesh      = "unknown_mesh"
	codeTooManyMeshes    = "too_many_meshes"
	codeBlockedEndpoint  = "blocked_endpoint"
	codeUndeliverable    = "undeliverable"
	codeInternal         = "internal"
)

// errorReply is the uniform error envelope: every non-2xx response body is
// {"error":{"code":"...","message":"..."}}.
type errorReply struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeDecodeError distinguishes a body that tripped the MaxBytesReader
// cap (413 — a well-formed client should split and retry) from one that is
// malformed (400 — retrying the same payload is pointless).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "body exceeds %d bytes", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
}

// writeShardError maps shard-layer errors onto HTTP statuses: a name that
// resolves to nothing is 404, a mesh deleted (or a manager shut down) while
// the request was in flight is 409 — the caller raced an administrative
// action, not a bad request — and a shard that latched an internal failure
// is 500: the fault is the server's, not the client's.
func writeShardError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, shard.ErrShardFailed):
		writeError(w, http.StatusInternalServerError, codeMeshFailed, "%v", err)
	case errors.Is(err, shard.ErrUnknownMesh):
		writeError(w, http.StatusNotFound, codeUnknownMesh, "%v", err)
	case errors.Is(err, shard.ErrClosed):
		writeError(w, http.StatusConflict, codeMeshClosed, "%v", err)
	case errors.Is(err, shard.ErrMeshExists):
		writeError(w, http.StatusConflict, codeMeshExists, "%v", err)
	case errors.Is(err, shard.ErrTooManyMeshes):
		writeError(w, http.StatusTooManyRequests, codeTooManyMeshes, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
	}
}

type createRequest struct {
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Depth selects a 3-D mesh when positive: the mesh is served by the
	// 3-D engine (events carry a z, the polygons endpoint serves
	// polytopes) and has no route endpoint. Omitted or zero means 2-D.
	Depth int `json:"depth,omitempty"`
}

type meshesReply struct {
	Meshes []shard.Stats `json:"meshes"`
}

// handleMeshes serves the collection: GET lists, POST creates.
func (s *server) handleMeshes(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, meshesReply{Meshes: s.mgr.List()})
	case http.MethodPost:
		// Strict decode, like the events endpoints: data trailing the JSON
		// document means a truncated or concatenated client write, which
		// must be rejected, not half-accepted.
		var req createRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
		if err := dec.Decode(&req); err != nil {
			writeDecodeError(w, fmt.Errorf("bad create request: %w", err))
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			writeError(w, http.StatusBadRequest, codeBadRequest, "trailing data after create request")
			return
		}
		if req.Width <= 0 || req.Height <= 0 || req.Width > maxMeshSide || req.Height > maxMeshSide {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"mesh must be 1..%d on each side, got %dx%d", maxMeshSide, req.Width, req.Height)
			return
		}
		if req.Depth < 0 || req.Depth > maxMeshSide {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"depth must be 0 (2-D) or 1..%d, got %d", maxMeshSide, req.Depth)
			return
		}
		if req.Depth > 0 && req.Width*req.Height*req.Depth > maxMeshNodes {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"mesh of %dx%dx%d exceeds %d nodes", req.Width, req.Height, req.Depth, maxMeshNodes)
			return
		}
		var t shard.Tenant
		var err error
		if req.Depth > 0 {
			t, err = s.mgr.Create3(req.Name, grid3.New(req.Width, req.Height, req.Depth))
		} else {
			t, err = s.mgr.Create(req.Name, grid.New(req.Width, req.Height))
		}
		if err != nil {
			writeShardError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, t.Stats())
	default:
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET lists meshes, POST creates one")
	}
}

// handleMesh routes /v1/meshes/{name}[/...]: DELETE on the bare name, and
// the sub-resources. Route is the one 2-D-only handler; every other
// sub-resource is served by serveMesh for either instantiation of the
// generic shard. rest is the path after the /v1/meshes/ segment.
func (s *server) handleMesh(w http.ResponseWriter, r *http.Request, rest string) {
	name, sub, _ := strings.Cut(rest, "/")
	t, err := s.mgr.Lookup(name)
	if err != nil {
		writeShardError(w, err)
		return
	}
	if sub == "" {
		if r.Method != http.MethodDelete {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "DELETE removes the mesh; its data lives under /v1/meshes/%s/...", name)
			return
		}
		if err := s.mgr.Delete(name); err != nil {
			writeShardError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
		return
	}
	switch sh := t.(type) {
	case *shard.Shard[grid.Coord, grid.Mesh]:
		if sub == "route" {
			s.handleRoute(w, r, sh)
			return
		}
		serveMesh(w, r, sh, sub)
	case *shard.Shard[grid3.Coord, grid3.Mesh]:
		serveMesh(w, r, sh, sub)
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "unknown mesh kind for %s", name)
	}
}

// serveMesh answers the dimension-generic sub-resources of one mesh.
func serveMesh[C any, T kernel.Topology[C]](w http.ResponseWriter, r *http.Request, sh *shard.Shard[C, T], sub string) {
	switch sub {
	case "events":
		handleEvents(w, r, sh)
	case "status":
		handleStatus(w, r, sh)
	case "polygons":
		handlePolygons(w, r, sh)
	case "stats":
		handleStats(w, sh)
	case "route":
		writeError(w, http.StatusNotFound, codeNotFound, "routing is 2-D only; mesh %s is %d-D", sh.Name(), sh.Mesh().Axes())
	default:
		writeError(w, http.StatusNotFound, codeNotFound, "no route %s under /v1/meshes/%s", sub, sh.Name())
	}
}

type eventsReply struct {
	// Version is the shard's event version after this batch (cumulative
	// state-changing events over the mesh's lifetime — stable across
	// engine evictions); Applied counts this batch's events that changed
	// state, Ignored the duplicate adds and clears of healthy nodes.
	Version    uint64 `json:"version"`
	Applied    int    `json:"applied"`
	Ignored    int    `json:"ignored"`
	Faults     int    `json:"faults"`
	Components int    `json:"components"`
}

func handleEvents[C any, T kernel.Topology[C]](w http.ResponseWriter, r *http.Request, sh *shard.Shard[C, T]) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a JSON array of events")
		return
	}
	events, err := kernel.DecodeEvents[C](http.MaxBytesReader(w, r.Body, maxEventBody))
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	res, err := sh.Apply(events)
	if err != nil {
		writeShardError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, eventsReply{
		Version:    res.View.Version,
		Applied:    res.Applied,
		Ignored:    res.Ignored,
		Faults:     res.View.Snapshot.Faults().Len(),
		Components: len(res.View.Snapshot.Polygons()),
	})
}

// statusReply echoes the queried node; Z is present on 3-D meshes only.
type statusReply struct {
	X       int    `json:"x"`
	Y       int    `json:"y"`
	Z       *int   `json:"z,omitempty"`
	Class   string `json:"class"`
	Version uint64 `json:"version"`
}

// axisNames are the status query parameters, one per mesh axis.
var axisNames = [...]string{"x", "y", "z"}

// handleStatus reads one integer query parameter per mesh axis and
// rejects the parameters of axes the mesh does not have, as the event
// codec rejects a z on a 2-D mesh.
func handleStatus[C any, T kernel.Topology[C]](w http.ResponseWriter, r *http.Request, sh *shard.Shard[C, T]) {
	mesh := sh.Mesh()
	q := r.URL.Query()
	var buf [len(axisNames)]int
	pos := buf[:mesh.Axes()]
	for a, name := range axisNames {
		if a >= len(pos) {
			if q.Has(name) {
				writeError(w, http.StatusBadRequest, codeBadRequest, "%d-D mesh takes no %s query parameter", len(pos), name)
				return
			}
			continue
		}
		v, err := strconv.Atoi(q.Get(name))
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "need integer %s query parameters", strings.Join(axisNames[:len(pos)], ", "))
			return
		}
		pos[a] = v
	}
	node := mesh.AtAxes(pos)
	if !mesh.Contains(node) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v outside %v", node, mesh)
		return
	}
	v, err := sh.Read()
	if err != nil {
		writeShardError(w, err)
		return
	}
	reply := statusReply{X: pos[0], Y: pos[1], Class: v.Snapshot.Class(node).String(), Version: v.Version}
	if len(pos) > 2 {
		reply.Z = &pos[2]
	}
	writeJSON(w, http.StatusOK, reply)
}

type polygonReply[C any] struct {
	// Faults are the component's faulty nodes, Polygon its minimum
	// faulty polygon (polytope on a 3-D mesh; faults included), both in
	// index order.
	Faults  []C `json:"faults"`
	Polygon []C `json:"polygon"`
}

type polygonsReply[C any] struct {
	Version  uint64            `json:"version"`
	Polygons []polygonReply[C] `json:"polygons"`
}

func handlePolygons[C any, T kernel.Topology[C]](w http.ResponseWriter, r *http.Request, sh *shard.Shard[C, T]) {
	v, err := sh.Read()
	if err != nil {
		writeShardError(w, err)
		return
	}
	snap := v.Snapshot
	reply := polygonsReply[C]{Version: v.Version, Polygons: make([]polygonReply[C], len(snap.Polygons()))}
	for i, poly := range snap.Polygons() {
		reply.Polygons[i] = polygonReply[C]{Faults: snap.Components()[i].Coords(), Polygon: poly.Coords()}
	}
	writeJSON(w, http.StatusOK, reply)
}

// routeRequest is the /route body: either one pair (src + dst) or a batch
// (pairs), never both. Endpoints decode through grid.Coord's strict codec,
// so a missing y or a stray z is a bad request, as in the events body.
type routeRequest struct {
	Src   *grid.Coord `json:"src,omitempty"`
	Dst   *grid.Coord `json:"dst,omitempty"`
	Pairs []routePair `json:"pairs,omitempty"`
}

type routePair struct {
	Src grid.Coord `json:"src"`
	Dst grid.Coord `json:"dst"`
}

// routeReply answers a single-pair query with the full trajectory.
type routeReply struct {
	// Version is the shard version the route was computed against;
	// CacheHit reports whether the query reused a memoized planner.
	Version      uint64       `json:"version"`
	CacheHit     bool         `json:"cache_hit"`
	Src          grid.Coord   `json:"src"`
	Dst          grid.Coord   `json:"dst"`
	Length       int          `json:"length"`
	AbnormalHops int          `json:"abnormal_hops"`
	Path         []grid.Coord `json:"path"`
}

// batchRouteReply answers a batched query with per-pair outcomes (hop
// counts, not full paths — a batch exists to amortize, not to stream
// trajectories).
type batchRouteReply struct {
	Version  uint64             `json:"version"`
	CacheHit bool               `json:"cache_hit"`
	Routes   []batchRouteResult `json:"routes"`
}

type batchRouteResult struct {
	Length       int    `json:"length"`
	AbnormalHops int    `json:"abnormal_hops"`
	Error        string `json:"error,omitempty"`
}

// routeStatus maps a routing failure onto its HTTP status and error code:
// a disabled endpoint is a conflict with the mesh's current fault state
// (it can heal), an undeliverable route (border detour, exhausted hop
// budget) is a semantically valid request the current topology cannot
// satisfy, and anything else (endpoints off the mesh) is a bad request.
func routeStatus(err error) (int, string) {
	switch {
	case errors.Is(err, routing.ErrBlockedEndpoint):
		return http.StatusConflict, codeBlockedEndpoint
	case errors.Is(err, routing.ErrBorderRegion), errors.Is(err, routing.ErrHopBudget):
		return http.StatusUnprocessableEntity, codeUndeliverable
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request, sh *shard.Shard[grid.Coord, grid.Mesh]) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, `POST {"src":{"x":..,"y":..},"dst":{..}} or {"pairs":[..]}`)
		return
	}
	var req routeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err := dec.Decode(&req); err != nil {
		writeDecodeError(w, fmt.Errorf("bad route request: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, codeBadRequest, "trailing data after route request")
		return
	}
	single := req.Src != nil || req.Dst != nil
	if single == (len(req.Pairs) > 0) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "provide either src+dst or pairs")
		return
	}
	if single && (req.Src == nil || req.Dst == nil) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "single queries need both src and dst")
		return
	}
	if len(req.Pairs) > maxRoutePairs {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "batch of %d pairs exceeds %d", len(req.Pairs), maxRoutePairs)
		return
	}

	planner, v, hit, err := sh.Planner()
	if err != nil {
		writeShardError(w, err)
		return
	}

	if single {
		route, err := planner.Route(*req.Src, *req.Dst)
		if err != nil {
			status, code := routeStatus(err)
			writeError(w, status, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, routeReply{
			Version: v.Version, CacheHit: hit,
			Src: *req.Src, Dst: *req.Dst,
			Length: route.Length(), AbnormalHops: route.AbnormalHops,
			Path: route.Path(),
		})
		return
	}

	queries := make([]routing.Query, len(req.Pairs))
	for i, p := range req.Pairs {
		queries[i] = routing.Query{Src: p.Src, Dst: p.Dst}
	}
	workers := s.acquireRouteWorkers(min(len(queries), cap(s.routeSem)))
	results := planner.RouteAll(queries, workers)
	s.releaseRouteWorkers(workers)
	reply := batchRouteReply{Version: v.Version, CacheHit: hit, Routes: make([]batchRouteResult, len(results))}
	for i, res := range results {
		if res.Err != nil {
			reply.Routes[i] = batchRouteResult{Error: res.Err.Error()}
			continue
		}
		reply.Routes[i] = batchRouteResult{Length: res.Route.Length(), AbnormalHops: res.Route.AbnormalHops}
	}
	writeJSON(w, http.StatusOK, reply)
}

type statsReply struct {
	shard.Stats
	// Snapshot-derived metrics, omitted while the mesh's engine is evicted
	// (Resident false): serving them would force a rebuild, so routine
	// stats polling across many meshes would defeat the -max-resident
	// bound. Status and polygon queries do rebuild on demand.
	Disabled          *int     `json:"disabled,omitempty"`
	DisabledNonFaulty *int     `json:"disabled_non_faulty,omitempty"`
	Unsafe            *int     `json:"unsafe,omitempty"`
	MeanPolygonSize   *float64 `json:"mean_polygon_size,omitempty"`
}

func handleStats[C any, T kernel.Topology[C]](w http.ResponseWriter, sh *shard.Shard[C, T]) {
	reply := statsReply{Stats: sh.Stats()}
	if v, ok := sh.Peek(); ok {
		snap := v.Snapshot
		disabled, nonFaulty := snap.Disabled().Len(), snap.DisabledNonFaulty()
		unsafe, mean := snap.Unsafe().Len(), snap.MeanPolygonSize()
		reply.Disabled, reply.DisabledNonFaulty = &disabled, &nonFaulty
		reply.Unsafe, reply.MeanPolygonSize = &unsafe, &mean
	}
	writeJSON(w, http.StatusOK, reply)
}
