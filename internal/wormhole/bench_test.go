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

func BenchmarkRun200Messages(b *testing.B) {
	m := grid.New(24, 24)
	inner := fault.NewInjector(grid.New(18, 18), fault.Clustered, 5).Inject(20)
	faults := nodeset.New(m)
	inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+3, c.Y+3)) })
	net := routing.NewPlannerForBlocked(m, block.Build(m, faults).Unsafe)

	rng := rand.New(rand.NewSource(1))
	var routes []*routing.Route
	for len(routes) < 200 {
		src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if src == dst || net.Blocked(src) || net.Blocked(dst) {
			continue
		}
		if r, err := net.Route(src, dst); err == nil {
			routes = append(routes, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := New(Config{FlitLen: 4})
		for id, r := range routes {
			sim.InjectRoute(id, r, id/8)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
