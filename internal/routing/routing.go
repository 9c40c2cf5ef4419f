// Package routing implements the fault-tolerant, deadlock-free routing of
// the paper's Section 2.2: Chalasani and Boppana's extended e-cube routing
// around orthogonal convex fault polygons.
//
// A message follows the base e-cube (x-y) route — along the row until it
// reaches the destination column, then along the column — until its next
// hop would enter a disabled region. It then becomes "abnormal" and travels
// along the region's boundary ring, clockwise or counterclockwise according
// to its type (EW, WE, NS or SN) and its row relative to the row of travel,
// until the region no longer affects the remaining e-cube path, where it
// becomes "normal" again. Four virtual channels keep the detours
// deadlock-free: EW-bound messages use vc0 for hops around faulty polygons,
// WE-bound use vc1, NS-bound use vc2 and SN-bound use vc3.
//
// The simulation is hop-level: it produces exact paths and channel usage,
// which is what the deadlock analysis (channel dependency graph) and the
// evaluation of detour overhead need. It assumes, like the literature, that
// fault regions do not touch the mesh border; a route that would need the
// virtual halo fails with ErrBorderRegion.
//
// Deadlock scope: around rectangular faulty blocks the orientation rules
// keep every detour arc free of direction reversals, so the four-channel
// assignment is cycle-free (asserted by the test suite with a sampled
// channel dependency graph). Around non-rectangular orthogonal convex
// polygons a detour can briefly reverse (e.g. a WE-bound message stepping
// west out of an L-shaped notch); the full channel discipline that [3]
// (Chalasani & Boppana, "Communication in multicomputers with nonconvex
// faults") builds for that case is beyond this paper's scope, so the
// dependency graph is surfaced as a measurement instead of an invariant
// there.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/nodeset"
)

// MessageType classifies a message by its direction of travel, after the
// paper: EW (east-to-west), WE, NS, or SN.
type MessageType uint8

// The four message types and their virtual channels.
const (
	EW MessageType = iota // travelling west, uses vc0
	WE                    // travelling east, uses vc1
	NS                    // travelling south, uses vc2
	SN                    // travelling north, uses vc3
)

// String returns the paper's name for the message type.
func (t MessageType) String() string {
	switch t {
	case EW:
		return "EW"
	case WE:
		return "WE"
	case NS:
		return "NS"
	case SN:
		return "SN"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// VC returns the virtual channel the type uses around faulty polygons.
func (t MessageType) VC() uint8 { return uint8(t) }

// Errors returned by Route.
var (
	ErrBlockedEndpoint = errors.New("routing: source or destination is disabled")
	ErrBorderRegion    = errors.New("routing: detour requires a region boundary outside the mesh")
	ErrHopBudget       = errors.New("routing: hop budget exhausted (disconnected or livelock)")
)

// Hop is one link traversal of a route.
type Hop struct {
	From, To grid.Coord
	// Type is the message type during the hop; VC is Type.VC().
	Type MessageType
	// Abnormal marks hops taken around a faulty polygon.
	Abnormal bool
}

// Route is a delivered message's trajectory.
type Route struct {
	Src, Dst grid.Coord
	Hops     []Hop
	// AbnormalHops counts hops spent routing around faulty polygons.
	AbnormalHops int
}

// Length returns the number of link traversals.
func (r *Route) Length() int { return len(r.Hops) }

// Path returns the node sequence including the source.
func (r *Route) Path() []grid.Coord {
	out := make([]grid.Coord, 0, len(r.Hops)+1)
	out = append(out, r.Src)
	for _, h := range r.Hops {
		out = append(out, h.To)
	}
	return out
}

// expandRing converts the 8-adjacent boundary walk into a 4-connected cycle
// messages can follow on mesh links: each diagonal step is split through
// the intermediate cell that lies outside the region. (Both intermediates
// cannot be blocked: a second region within one hop of the first would have
// merged with it under 8-connectivity.)
func expandRing(region *nodeset.Set, walk []grid.Coord) []grid.Coord {
	if len(walk) < 2 {
		return walk
	}
	out := make([]grid.Coord, 0, 2*len(walk))
	for i, c := range walk {
		out = append(out, c)
		next := walk[(i+1)%len(walk)]
		if c.X != next.X && c.Y != next.Y {
			mid := grid.XY(c.X, next.Y)
			if region.Has(mid) {
				mid = grid.XY(next.X, c.Y)
			}
			out = append(out, mid)
		}
	}
	// The expansion may repeat cells where two diagonal steps share an
	// intermediate; collapse immediate repeats including the wrap.
	dedup := out[:0:0]
	for _, c := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1] != c {
			dedup = append(dedup, c)
		}
	}
	for len(dedup) > 1 && dedup[0] == dedup[len(dedup)-1] {
		dedup = dedup[:len(dedup)-1]
	}
	return dedup
}

// classify returns the message type for the current position.
func classify(cur, dst grid.Coord) MessageType {
	switch {
	case dst.X > cur.X:
		return WE
	case dst.X < cur.X:
		return EW
	case dst.Y < cur.Y:
		return NS
	default:
		return SN
	}
}

// orientation returns the ring-walk step direction per the paper's rules:
// the orientation of a WE-bound message is clockwise above its row of
// travel (the destination row) and counterclockwise below it; EW-bound is
// the mirror; NS- and SN-bound messages don't care (clockwise here,
// deterministically). The traced boundary walk advances clockwise in this
// module's Y-north frame, so clockwise follows it forward (+1) and
// counterclockwise backward (-1).
func orientation(t MessageType, cur, dst grid.Coord) int {
	const cw, ccw = +1, -1
	switch t {
	case WE:
		if cur.Y > dst.Y {
			return cw
		}
		return ccw
	case EW:
		if cur.Y > dst.Y {
			return ccw
		}
		return cw
	default:
		return cw
	}
}
