package wormhole

import (
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/routing"
)

// hop builds a Hop between adjacent nodes with the given type.
func hop(fx, fy, tx, ty int, t routing.MessageType) routing.Hop {
	return routing.Hop{From: grid.XY(fx, fy), To: grid.XY(tx, ty), Type: t}
}

// straightPath returns an eastward WE path of n hops starting at (x,y).
func straightPath(x, y, n int) []routing.Hop {
	hops := make([]routing.Hop, 0, n)
	for i := 0; i < n; i++ {
		hops = append(hops, hop(x+i, y, x+i+1, y, routing.WE))
	}
	return hops
}

func TestSingleWormLatency(t *testing.T) {
	s := New(Config{FlitLen: 3})
	s.Inject(1, straightPath(0, 0, 5), 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock() || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Head pipelines through 5 channels, then the tail (3 flits) drains.
	if res.Latency[1] != 5+3 {
		t.Fatalf("latency = %d, want 8", res.Latency[1])
	}
}

func TestZeroHopMessageIgnored(t *testing.T) {
	s := New(Config{})
	s.Inject(1, nil, 0)
	res, err := s.Run()
	if err != nil || res.Completed != 0 || res.Deadlock() {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestPipelinedWormsShareLink(t *testing.T) {
	// Two worms on the same path, staggered: the second queues behind the
	// first but both complete.
	s := New(Config{FlitLen: 2})
	s.Inject(1, straightPath(0, 0, 6), 0)
	s.Inject(2, straightPath(0, 0, 6), 1)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Deadlock() {
		t.Fatalf("result = %+v", res)
	}
	if res.Latency[2] < res.Latency[1] {
		t.Fatalf("the queued worm cannot be faster: %v", res.Latency)
	}
}

func TestDifferentVCsDoNotBlock(t *testing.T) {
	// Same physical link, different virtual channels: no interference.
	a := []routing.Hop{hop(0, 0, 1, 0, routing.WE)}
	bHops := []routing.Hop{hop(0, 0, 1, 0, routing.EW)} // same link, vc0 vs vc1
	s := New(Config{FlitLen: 1})
	s.Inject(1, a, 0)
	s.Inject(2, bHops, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency[1] != res.Latency[2] {
		t.Fatalf("vc isolation broken: %v", res.Latency)
	}
}

// A hand-crafted circular wait: four long worms around a 2x2 node cycle on
// one virtual channel. Each holds one channel and requests the next worm's
// channel — the canonical deadlock. The simulator must detect it, not hang.
func TestDeadlockDetected(t *testing.T) {
	// Cycle of channels: (0,0)E -> (1,0)N -> (1,1)W -> (0,1)S -> (0,0)E.
	paths := [][]routing.Hop{
		{hop(0, 0, 1, 0, routing.WE), hop(1, 0, 1, 1, routing.WE)},
		{hop(1, 0, 1, 1, routing.WE), hop(1, 1, 0, 1, routing.WE)},
		{hop(1, 1, 0, 1, routing.WE), hop(0, 1, 0, 0, routing.WE)},
		{hop(0, 1, 0, 0, routing.WE), hop(0, 0, 1, 0, routing.WE)},
	}
	s := New(Config{FlitLen: 4}) // long worms: tails never free the first channel
	for i, p := range paths {
		s.Inject(i+1, p, 0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlock() {
		t.Fatalf("circular wait not detected: %+v", res)
	}
	if len(res.Deadlocked) != 4 {
		t.Fatalf("deadlocked = %v, want all four", res.Deadlocked)
	}
}

// The same circular wait with short worms resolves: tails release channels
// as heads advance.
func TestShortWormsResolveCycle(t *testing.T) {
	paths := [][]routing.Hop{
		{hop(0, 0, 1, 0, routing.WE), hop(1, 0, 1, 1, routing.WE)},
		{hop(1, 0, 1, 1, routing.WE), hop(1, 1, 0, 1, routing.WE)},
	}
	s := New(Config{FlitLen: 1})
	for i, p := range paths {
		s.Inject(i+1, p, 0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock() || res.Completed != 2 {
		t.Fatalf("short worms should drain: %+v", res)
	}
}

// Dynamic validation of the paper's virtual-channel scheme: batches of
// extended e-cube routes around rectangular faulty blocks never deadlock,
// across seeds and batch sizes.
func TestNoDeadlockAroundFaultyBlocks(t *testing.T) {
	meshSize := 20
	m := grid.New(meshSize, meshSize)
	for seed := int64(0); seed < 8; seed++ {
		inner := fault.NewInjector(grid.New(meshSize-6, meshSize-6), fault.Clustered, seed).Inject(18)
		faults := nodeset.New(m)
		inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+3, c.Y+3)) })
		net := routing.NewPlannerForBlocked(m, block.Build(m, faults).Unsafe)

		s := New(Config{FlitLen: 4})
		rng := rand.New(rand.NewSource(seed))
		injected := 0
		for i := 0; injected < 60 && i < 600; i++ {
			src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			if src == dst || net.Blocked(src) || net.Blocked(dst) {
				continue
			}
			r, err := net.Route(src, dst)
			if err != nil {
				continue
			}
			s.InjectRoute(injected, r, injected/4) // 4 injections per cycle
			injected++
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Deadlock() {
			t.Fatalf("seed %d: deadlock among %d e-cube messages: %v",
				seed, injected, res.Deadlocked)
		}
		if res.Completed != injected {
			t.Fatalf("seed %d: %d/%d completed", seed, res.Completed, injected)
		}
	}
}

func TestFutureInjectionsAreNotDeadlock(t *testing.T) {
	s := New(Config{FlitLen: 1})
	s.Inject(1, straightPath(0, 0, 2), 10) // starts at cycle 10
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock() || res.Completed != 1 {
		t.Fatalf("pending injection misread as deadlock: %+v", res)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	s := New(Config{FlitLen: 1, MaxCycles: 3})
	s.Inject(1, straightPath(0, 0, 2), 100) // would idle past the limit
	if _, err := s.Run(); err == nil {
		t.Fatal("expected a max-cycles error")
	}
}

func TestContentionFairnessEventuallyDrains(t *testing.T) {
	// Many worms crossing one shared channel.
	s := New(Config{FlitLen: 2})
	for i := 0; i < 10; i++ {
		s.Inject(i, straightPath(0, 0, 4), 0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 || res.Deadlock() {
		t.Fatalf("contention run: %+v", res)
	}
}
