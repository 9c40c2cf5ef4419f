// Package grid models the 2-D mesh and torus topologies used throughout the
// library: coordinates, the 4-neighbour link structure of the network, the
// 8-adjacency used by the component merge process (Definition 2 of the
// paper), and axis-aligned rectangles.
//
// Conventions: X is the column (grows east), Y is the row (grows north).
// A node address (x, y) follows the paper: u = (u_x, u_y) with
// u_x, u_y in {0, ..., n-1}. "Above" a row means a strictly larger Y.
package grid

import (
	"encoding/json"
	"fmt"
)

// Coord is the address of a node in a 2-D mesh or torus. It encodes as
// {"x":…,"y":…}, the wire shape of every coordinate mfpd serves and of
// the fault-event stream, which inlines it (see kernel.Event).
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// XY is shorthand for Coord{X: x, Y: y}; fault scenarios read better as
// grid.XY(2, 4) than as keyed struct literals.
func XY(x, y int) Coord { return Coord{X: x, Y: y} }

// String renders the coordinate as "(x,y)", matching the paper's notation.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// UnmarshalJSON decodes {"x":…,"y":…}, requiring both fields so a corrupt
// event is rejected instead of silently decoding as the origin, and
// rejecting a "z" so a 3-D event posted to a 2-D mesh fails loudly
// instead of being projected onto the plane. Other unknown fields (such
// as an event's "op") are ignored.
func (c *Coord) UnmarshalJSON(data []byte) error {
	var w struct {
		X *int `json:"x"`
		Y *int `json:"y"`
		Z *int `json:"z"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("grid: bad coordinate: %w", err)
	}
	if w.X == nil || w.Y == nil {
		return fmt.Errorf("grid: coordinate %s misses x or y", data)
	}
	if w.Z != nil {
		return fmt.Errorf("grid: 2-D coordinate %s carries z", data)
	}
	*c = Coord{X: *w.X, Y: *w.Y}
	return nil
}

// SetWire assembles the coordinate from already-scanned wire fields — the
// hook kernel.DecodeEvents' canonical fast path uses in place of
// UnmarshalJSON. The dimensionality check matches the JSON codec: a 2-D
// coordinate rejects a z field.
func (c *Coord) SetWire(x, y, z int, hasZ bool) error {
	if hasZ {
		return fmt.Errorf("grid: 2-D coordinate carries z")
	}
	*c = Coord{X: x, Y: y}
	return nil
}

// Add returns c translated by d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

// Direction identifies one of the four mesh link directions.
type Direction uint8

// The four link directions of a 2-D mesh. East increases X, North increases Y.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// NumDirections is the number of link directions in a 2-D mesh.
const NumDirections = int(numDirections)

// Delta returns the unit coordinate offset of the direction.
func (d Direction) Delta() Coord {
	switch d {
	case East:
		return Coord{1, 0}
	case West:
		return Coord{-1, 0}
	case North:
		return Coord{0, 1}
	case South:
		return Coord{0, -1}
	}
	panic(fmt.Sprintf("grid: invalid direction %d", uint8(d)))
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	panic(fmt.Sprintf("grid: invalid direction %d", uint8(d)))
}

// String returns the compass name of the direction.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	}
	return fmt.Sprintf("direction(%d)", uint8(d))
}

// Directions lists the four directions in a stable order (E, W, N, S).
var Directions = [NumDirections]Direction{East, West, North, South}

// Mesh describes a W×H 2-D mesh, optionally with wraparound links (a torus).
// The zero value is an empty mesh. Mesh values are small and intended to be
// passed by value.
type Mesh struct {
	W, H  int
	Torus bool
}

// New returns a W×H mesh without wraparound links. It panics when either
// dimension is not positive, since no algorithm in this module is defined on
// an empty network.
func New(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid mesh dimensions %dx%d", w, h))
	}
	return Mesh{W: w, H: h}
}

// NewTorus returns a W×H mesh with wraparound links in both dimensions.
func NewTorus(w, h int) Mesh {
	m := New(w, h)
	m.Torus = true
	return m
}

// Size returns the number of nodes in the mesh.
func (m Mesh) Size() int { return m.W * m.H }

// Contains reports whether c is a node address inside the mesh (before any
// torus wrapping).
func (m Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// Index maps an in-mesh coordinate to a dense index in [0, Size).
// It panics if c lies outside the mesh; wrap torus coordinates first.
func (m Mesh) Index(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("grid: coordinate %v outside %dx%d mesh", c, m.W, m.H))
	}
	return c.Y*m.W + c.X
}

// CoordAt is the inverse of Index.
func (m Mesh) CoordAt(i int) Coord {
	if i < 0 || i >= m.Size() {
		panic(fmt.Sprintf("grid: index %d outside %dx%d mesh", i, m.W, m.H))
	}
	return Coord{X: i % m.W, Y: i / m.W}
}

// Wrap normalizes c onto the mesh. For a torus both dimensions wrap
// modularly and ok is always true. For a plain mesh, ok reports whether c
// was inside; the returned coordinate is c unchanged.
func (m Mesh) Wrap(c Coord) (Coord, bool) {
	if !m.Torus {
		return c, m.Contains(c)
	}
	c.X = mod(c.X, m.W)
	c.Y = mod(c.Y, m.H)
	return c, true
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// Step returns the neighbour of c in direction d, wrapped onto the mesh.
// ok is false when the step leaves a non-torus mesh.
func (m Mesh) Step(c Coord, d Direction) (Coord, bool) {
	return m.Wrap(c.Add(d.Delta()))
}

// Neighbors4 appends the existing link neighbours of c (the nodes connected
// to c in the network) to buf and returns the extended slice. Interior mesh
// nodes have 4 neighbours; border nodes of a non-torus mesh have fewer.
func (m Mesh) Neighbors4(c Coord, buf []Coord) []Coord {
	for _, d := range Directions {
		if n, ok := m.Step(c, d); ok {
			buf = append(buf, n)
		}
	}
	return buf
}

// Neighbors8 appends the adjacent nodes of c per Definition 2 of the paper
// (the 8-neighbourhood used by the merge process) to buf and returns the
// extended slice.
func (m Mesh) Neighbors8(c Coord, buf []Coord) []Coord {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if n, ok := m.Wrap(Coord{c.X + dx, c.Y + dy}); ok {
				buf = append(buf, n)
			}
		}
	}
	return buf
}

// Links appends the link neighbours of c to buf; it is Neighbors4 under
// the dimension-generic name of the kernel.Topology interface.
func (m Mesh) Links(c Coord, buf []Coord) []Coord { return m.Neighbors4(c, buf) }

// Adjacent appends the merge-process neighbours of c (Definition 2) to
// buf; it is Neighbors8 under the dimension-generic name of the
// kernel.Topology interface.
func (m Mesh) Adjacent(c Coord, buf []Coord) []Coord { return m.Neighbors8(c, buf) }

// Axes returns the number of axes of the topology (2).
func (m Mesh) Axes() int { return 2 }

// AxisLen returns the node count along the given axis (0 = X, 1 = Y).
func (m Mesh) AxisLen(axis int) int {
	if axis == 0 {
		return m.W
	}
	return m.H
}

// AxisPos returns c's position along the given axis.
func (m Mesh) AxisPos(axis int, c Coord) int {
	if axis == 0 {
		return c.X
	}
	return c.Y
}

// AtAxes builds the coordinate with the given per-axis positions.
func (m Mesh) AtAxes(vals []int) Coord { return Coord{X: vals[0], Y: vals[1]} }

// AxisStride returns the dense-index stride of the given axis: Index is
// y*W + x, so X is contiguous and Y strides by a full row.
func (m Mesh) AxisStride(axis int) int {
	if axis == 0 {
		return 1
	}
	return m.W
}

// Wraps reports whether the mesh has wraparound links.
func (m Mesh) Wraps() bool { return m.Torus }

// Dist returns the routing (Manhattan) distance between a and b, accounting
// for wraparound links on a torus. Both coordinates must lie in the mesh.
func (m Mesh) Dist(a, b Coord) int {
	if !m.Contains(a) || !m.Contains(b) {
		panic(fmt.Sprintf("grid: Dist outside mesh: %v, %v", a, b))
	}
	dx := abs(a.X - b.X)
	dy := abs(a.Y - b.Y)
	if m.Torus {
		if w := m.W - dx; w < dx {
			dx = w
		}
		if h := m.H - dy; h < dy {
			dy = h
		}
	}
	return dx + dy
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Diameter returns the network diameter: 2(n-1) hops for an n×n mesh, and
// the corresponding wrapped value for a torus.
func (m Mesh) Diameter() int {
	if m.Torus {
		return m.W/2 + m.H/2
	}
	return (m.W - 1) + (m.H - 1)
}

// String describes the topology, e.g. "mesh 8x8" or "torus 16x16".
func (m Mesh) String() string {
	kind := "mesh"
	if m.Torus {
		kind = "torus"
	}
	return fmt.Sprintf("%s %dx%d", kind, m.W, m.H)
}
