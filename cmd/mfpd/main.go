// Command mfpd is the long-lived fault-region service. It owns a namespace
// of independently evolving meshes (tenants), each maintained incrementally
// by its own engine behind a per-mesh mailbox that batches incoming fault
// events (internal/shard), and answers status and polygon queries from
// immutable snapshots, so heavy read traffic never waits on fault churn.
//
// Usage:
//
//	mfpd                                  # "default" 100x100 mesh on :8080
//	mfpd -mesh 256 -addr :9000
//	mfpd -mesh 0 -max-resident 64         # start empty; create meshes via the API
//	mfpd -data-dir /var/lib/mfpd          # durable: WAL + crash recovery
//	mfpd -debug-addr localhost:6060       # expose net/http/pprof + /metrics
//
// API, versioned under /v1 (all responses are JSON; errors are a uniform
// {"error":{"code":"...","message":"..."}} envelope; docs/OPERATIONS.md is
// the full reference):
//
//	GET    /v1/meshes                   list every mesh with stats
//	POST   /v1/meshes                   {"name":"a","width":64,"height":64[,"depth":8]} -> 201
//	                                    A positive depth makes a 3-D mesh: its
//	                                    events then carry x, y and z, and the
//	                                    polygons endpoint serves minimum polytopes.
//	DELETE /v1/meshes/a                 drain and delete mesh "a"
//	POST   /v1/meshes/a/events          body: [{"op":"add","x":3,"y":4},...]
//	                                    (3-D: [{"op":"add","x":3,"y":4,"z":5},...])
//	                                    Applies the batch atomically; duplicate
//	                                    adds and clears of healthy nodes are
//	                                    counted as ignored, not errors.
//	GET    /v1/meshes/a/status?x=3&y=4  -> {"x":3,"y":4,"class":"safe","version":17}
//	                                    (3-D meshes also require z; 2-D ones
//	                                    reject it)
//	GET    /v1/meshes/a/polygons        every component's minimum faulty polygon
//	                                    (polytope on a 3-D mesh)
//	POST   /v1/meshes/a/route           {"src":{"x":0,"y":0},"dst":{"x":9,"y":9}}
//	                                    or {"pairs":[...]}; 2-D meshes only
//	                                    (404 on a 3-D mesh)
//	GET    /v1/meshes/a/stats           shard stats + construction metrics
//	GET    /metrics                     process metrics, Prometheus text format
//	                                    (docs/METRICS.md documents every family)
//	GET    /healthz                     -> 200 ok
//
// With -data-dir set, every acknowledged event batch is appended to a
// per-mesh write-ahead log and fsynced before the reply, logs are
// compacted into fault-set snapshots as they grow (-compact-bytes), and
// startup recovers every mesh found in the directory — including torn
// final records from a mid-write crash, which are detected by CRC and
// truncated, never silently replayed. DELETE removes a mesh's log with it.
//
// Every query is served from the mesh's view current at arrival time: a
// batch posted concurrently is observed either entirely or not at all.
// -max-resident bounds how many engines stay in memory; least-recently-used
// meshes are evicted down to the bound and rebuilt from their fault sets on
// next access (reads on resident meshes stay wait-free throughout).
// -max-meshes caps how many meshes the API may create (429 beyond it),
// bounding what eviction cannot reclaim.
//
// Every request is logged through log/slog (request id, method, route,
// mesh, status, duration); -log-level debug includes /healthz and /metrics
// probes, which log at debug so scrapes don't drown the log. -debug-addr
// starts a second listener serving net/http/pprof and a /metrics mirror —
// keep it on localhost or a private interface; profiles are not for the
// public API surface.
//
// On SIGINT/SIGTERM the service drains gracefully: in-flight HTTP requests
// finish, every mesh's queued event batches are applied, then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "optional second listener serving net/http/pprof and /metrics (keep it private)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	mesh := flag.Int("mesh", 100, "side length of the initial \"default\" n×n mesh (0 = start with no meshes)")
	maxResident := flag.Int("max-resident", 0, "LRU bound on resident engines (0 = unlimited)")
	maxMeshes := flag.Int("max-meshes", 1024, "bound on meshes the API may create (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "directory for per-mesh write-ahead logs; empty = in-memory only")
	compactBytes := flag.Int64("compact-bytes", shard.DefaultCompactBytes, "log size at which a mesh's WAL compacts into a snapshot (negative = never)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "mfpd: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *mesh < 0 {
		fmt.Fprintf(os.Stderr, "mfpd: -mesh must be >= 0, got %d\n", *mesh)
		os.Exit(2)
	}
	mgr := shard.NewManager(shard.Config{
		MaxResident:  *maxResident,
		MaxMeshes:    *maxMeshes,
		DataDir:      *dataDir,
		CompactBytes: *compactBytes,
	})
	// Recovery before anything serves: every mesh persisted under -data-dir
	// is reopened and replayed (snapshot + log, torn tails truncated). A
	// mesh that cannot be recovered is a loud startup failure — a
	// half-recovered namespace silently serving wrong state would be worse.
	recovered, err := mgr.Recover()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfpd: recovery:", err)
		os.Exit(1)
	}
	if len(recovered) > 0 {
		logger.Info("recovered meshes", "count", len(recovered), "data_dir", *dataDir)
	}
	if *mesh > 0 {
		// The initial "default" mesh is only created when recovery didn't
		// already bring one back — a restart must not clobber durable state.
		if _, err := mgr.Lookup("default"); errors.Is(err, shard.ErrUnknownMesh) {
			if _, err := mgr.Create("default", grid.New(*mesh, *mesh)); err != nil {
				fmt.Fprintln(os.Stderr, "mfpd:", err)
				os.Exit(2)
			}
			logger.Info("created mesh", "mesh", "default", "width", *mesh, "height", *mesh)
		}
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: newHandler(mgr, logger),
		// Every request is a small JSON exchange answered from an in-memory
		// snapshot; anything slow is a stuck client, and zero timeouts
		// would let such connections pin goroutines forever.
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	// The debug listener is its own server on its own address so pprof and
	// the metrics mirror can stay off the public interface. No timeouts:
	// profile streams (e.g. /debug/pprof/profile?seconds=30) are long reads
	// by design, and the listener is operator-only.
	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", obs.Default.Handler())
		debugSrv = &http.Server{Addr: *debugAddr, Handler: mux}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }() //mfplint:managed listener goroutine exits into errc when Shutdown below closes the listener
	if debugSrv != nil {
		go func() { errc <- debugSrv.ListenAndServe() }() //mfplint:managed debug listener exits into errc when its Shutdown below closes the listener
		logger.Info("debug listener up", "addr", *debugAddr)
	}
	logger.Info("serving", "meshes", mgr.Len(), "addr", *addr)

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Release the signal handler immediately so a second SIGINT/SIGTERM
	// kills the process the default way instead of being swallowed while
	// the drain below runs.
	stop()

	// Graceful drain: stop accepting connections and let in-flight requests
	// finish, then drain every shard's mailbox so accepted event batches
	// are applied before exit.
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	mgr.Close()
	logger.Info("drained")
}
