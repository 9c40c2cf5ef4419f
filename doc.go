// Package repro is a complete Go reproduction of Wu & Jiang, "On
// Constructing the Minimum Orthogonal Convex Polygon in 2-D Faulty Meshes"
// (IPDPS 2004): the fault models, the three fault-region constructions
// (rectangular faulty blocks, sub-minimum faulty polygons, and the paper's
// minimum faulty polygons in centralized and distributed form), the
// fault-tolerant extended e-cube routing they enable, and the simulation
// harness that regenerates the paper's evaluation (Figures 9-11).
//
// Start at internal/core for the library API, cmd/mfpsim to reproduce the
// figures (including `-verify`, which re-checks every claim of the paper's
// Section 4 against a fresh run), and the examples directory for runnable
// walkthroughs of the paper's worked figures.
//
// The experiment harness (internal/experiments) fans every (faultCount,
// trial) cell out to a bounded worker pool and merges results in canonical
// order, so sweeps are deterministic at any worker count; mfpsim's -workers
// flag bounds the pool and -bench-json writes the machine-readable timing
// report (internal/benchfmt) that CI archives per commit and diffs against
// the committed BENCH_baseline.json.
//
// The geometry itself lives once, in internal/kernel: a dimension-generic
// topology abstraction (Topology[C] over a coordinate type), the dense
// node bitset, the component merge and the per-axis orthogonal convex
// closure (single-pass in 2-D, cascading fixpoint in 3-D), and the
// incremental engine, all parameterized over the topology. grid and grid3
// are the two topologies; nodeset, nodeset3, polygon, mfp, mfp3d, engine
// and engine3 are thin instantiations, so the paper's 2-D construction
// and its stated future work — "extending the proposed method to higher
// dimension meshes" — are the same code.
//
// Beyond the paper's static setting, internal/engine maintains the
// constructions incrementally under fault churn: AddFault recomputes only
// the component the event merges, ClearFault re-splits only the component
// that lost the fault, and immutable snapshots share untouched polygons
// copy-on-write (internal/engine3 is the 3-D twin, with the cuboid union
// as its faulty-block model). internal/shard scales the engines to many
// independently evolving meshes (tenants) of either dimensionality:
// per-shard mailbox goroutines batch incoming events, reads are wait-free
// on resident shards, and an LRU bound evicts idle engines, which rebuild
// exactly from their persisted fault sets on next access. cmd/mfpd serves
// the shard manager as a long-lived HTTP service (admin create/delete/list
// — create takes an optional depth for 3-D meshes — plus mesh-scoped
// events/status/polygon/route/stats routes, with graceful drain on
// shutdown), cmd/mfpsim -churn and -churn3d and the churn records of
// -bench-json quantify the incremental-vs-rebuild speedup in both
// dimensions, and examples/churn is the runnable walkthrough.
//
// The routing plane closes the loop from constructed polygons back to the
// paper's motivation — routing around them: routing.NewPlanner prepares
// extended e-cube routing directly from an engine snapshot (reusing its
// cached polygons instead of re-flooding the disabled union), serves
// single and batched queries (RouteAll, deterministic at any worker
// count), and is memoized per shard version so concurrent route queries
// at one fault state share the preprocessing and the next fault event
// invalidates it. cmd/mfpd exposes it as POST /v1/meshes/{name}/route,
// cmd/routesim compares the detour overhead of the FB/FP/MFP models on
// the same planner machinery, and experiments.RouteSweep (mfpsim -route,
// the route/* records of -bench-json) sweeps routed stretch and
// abnormal-hop share against fault density.
//
// The serving plane is observable end to end: internal/obs is a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms) that the kernel engine, the shard layer, the
// routing planner and mfpd's HTTP middleware all report into, exported in
// Prometheus text format on GET /metrics. mfpd logs every request through
// log/slog with a process-unique request id, and -debug-addr opens a
// private net/http/pprof listener. docs/METRICS.md documents every metric
// family (CI fails if the exported surface and the doc drift apart) and
// docs/OPERATIONS.md is the operator's reference for flags, lifecycle and
// the full HTTP API; mfpsim -stress cross-checks the metric counters
// against the harness's own accounting on every run.
//
// Correctness is enforced in layers: every engine snapshot is
// differentially tested against a from-scratch core.Construct, cmd/mfpsim
// -stress replays a deterministic multi-shard churn scenario from
// concurrent clients and re-verifies every shard at checkpoints (CI runs
// it under the race detector and asserts byte-identical output across
// client counts), internal/polygon's property tests compare the closure
// machinery with a brute-force minimum on small meshes, and native fuzz
// targets harden the event decoding path and the mfpd handler. README.md
// documents the parallel sweep, the engine, the shard layer, the testing
// strategy, and the Makefile targets that CI (.github/workflows/ci.yml)
// runs.
package repro
