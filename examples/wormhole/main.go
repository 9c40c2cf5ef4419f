// Wormhole switching under load: batches of extended e-cube messages cross
// a faulty mesh cycle by cycle, flit by flit. The run demonstrates the
// dynamic side of the paper's deadlock discussion — the four virtual
// channels keep traffic around rectangular faulty blocks flowing, while a
// hand-crafted circular wait deadlocks immediately and is detected.
//
//	go run ./examples/wormhole
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/block"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/routing"
	"repro/internal/wormhole"
)

func main() {
	m := grid.New(24, 24)
	inner := fault.NewInjector(grid.New(18, 18), fault.Clustered, 5).Inject(20)
	faults := nodeset.New(m)
	inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+3, c.Y+3)) })
	net := routing.NewPlannerForBlocked(m, block.Build(m, faults).Unsafe)

	sim := wormhole.New(wormhole.Config{FlitLen: 4})
	rng := rand.New(rand.NewSource(1))
	injected, totalHops := 0, 0
	for injected < 200 {
		src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if src == dst || net.Blocked(src) || net.Blocked(dst) {
			continue
		}
		r, err := net.Route(src, dst)
		if err != nil {
			continue
		}
		sim.InjectRoute(injected, r, injected/8) // 8 injections per cycle
		totalHops += r.Length()
		injected++
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%v with %d faults in rectangular blocks\n\n", m, faults.Len())
	fmt.Printf("messages injected:   %d (4-flit worms, 8 per cycle)\n", injected)
	fmt.Printf("messages delivered:  %d\n", res.Completed)
	fmt.Printf("deadlock:            %v\n", res.Deadlock())
	fmt.Printf("simulated cycles:    %d\n", res.Cycles)
	var worst, sum int
	for _, l := range res.Latency {
		sum += l
		if l > worst {
			worst = l
		}
	}
	fmt.Printf("mean latency:        %.1f cycles (worst %d)\n",
		float64(sum)/float64(len(res.Latency)), worst)
	fmt.Printf("mean path length:    %.1f hops\n\n", float64(totalHops)/float64(injected))

	// The counter-example: a circular wait on one virtual channel.
	bad := wormhole.New(wormhole.Config{FlitLen: 4})
	cycle := []grid.Coord{grid.XY(0, 0), grid.XY(1, 0), grid.XY(1, 1), grid.XY(0, 1)}
	for i := range cycle {
		a, b, c := cycle[i], cycle[(i+1)%4], cycle[(i+2)%4]
		bad.Inject(i, []routing.Hop{
			{From: a, To: b, Type: routing.WE},
			{From: b, To: c, Type: routing.WE},
		}, 0)
	}
	badRes, err := bad.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circular wait on one virtual channel: deadlock=%v after %d cycles (worms %v)\n",
		badRes.Deadlock(), badRes.Cycles, badRes.Deadlocked)
}
