package routing_test

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/routing"
)

// The paper's Figure 2: a WE-bound message from (1,3) to (6,4) detours
// counterclockwise around the faulty polygon {(2,4),(3,4),(4,3)}.
func ExampleNewPlannerForBlocked() {
	m := grid.New(8, 8)
	polygon := nodeset.FromCoords(m, grid.XY(2, 4), grid.XY(3, 4), grid.XY(4, 3))
	net := routing.NewPlannerForBlocked(m, polygon)

	route, err := net.Route(grid.XY(1, 3), grid.XY(6, 4))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("hops:", route.Length())
	fmt.Println("path:", route.Path())
	// Output:
	// hops: 8
	// path: [(1,3) (2,3) (3,3) (3,2) (4,2) (5,2) (6,2) (6,3) (6,4)]
}

// ExampleNewPlanner is the serving path: prepare routing directly from an
// engine snapshot (reusing its cached polygons) and answer queries against
// the live fault state. This is what mfpd memoizes per mesh version.
func ExampleNewPlanner() {
	eng, err := engine.New(grid.New(8, 8))
	if err != nil {
		panic(err)
	}
	if _, _, err := eng.Apply([]engine.Event{
		{Op: engine.Add, Node: grid.XY(2, 4)},
		{Op: engine.Add, Node: grid.XY(3, 4)},
		{Op: engine.Add, Node: grid.XY(4, 3)},
	}); err != nil {
		panic(err)
	}

	p := routing.NewPlanner(eng.Snapshot())
	fmt.Println("blocked nodes:", p.BlockedCount())

	route, err := p.Route(grid.XY(1, 3), grid.XY(6, 4))
	if err != nil {
		panic(err)
	}
	fmt.Println("hops:", route.Length(), "abnormal:", route.AbnormalHops)
	// Output:
	// blocked nodes: 3
	// hops: 8 abnormal: 1
}
