// Package ocube implements the open-cube rooted tree structure of
// Hélary & Mostefaoui (INRIA RR-2041, 1993), Section 2.
//
// An N-open-cube (N = 2^p) is a rooted tree built recursively from two
// (N/2)-open-cubes whose roots are connected by a single directed edge.
// It is an N-hypercube from which some links have been removed, and is
// isomorphic to the binomial tree B_p.
//
// The package fixes the canonical labeling in which position 0 is the
// initial root and the initial father of position x>0 is x with its lowest
// set bit cleared. Under this labeling the paper's structural functions
// become pure bit arithmetic:
//
//   - dist(x, y)   = bitLen(x XOR y)               (Definition 2.2)
//   - power(x)     = trailingZeros(x), pmax for 0  (Definition 2.1)
//   - p-group of x = positions sharing x's bits above bit p-1
//
// The paper numbers nodes from 1 (its node 1 is position 0 here); use
// Label/ParseLabel to convert when rendering paper figures.
//
// Distances and p-groups are invariant under b-transformations
// (Corollaries 2.2 and 2.3), so they are properties of the labeling alone
// and never change at run time; only father pointers evolve.
package ocube

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Pos identifies a node by its position in the canonical labeling,
// 0 ≤ Pos < N. The zero position is the initial root.
type Pos int

// None is the nil node identity (used for "father = nil" at the root).
const None Pos = -1

// MaxP is the largest supported cube order (2^MaxP nodes). It is bounded
// only to keep distance tables and test enumerations sane.
const MaxP = 30

// Valid reports whether p is within [0, n).
func (x Pos) Valid(n int) bool { return x >= 0 && int(x) < n }

// Label returns the paper's 1-based node number for a position.
func (x Pos) Label() int { return int(x) + 1 }

// String renders the position using the paper's 1-based numbering,
// or "nil" for None.
func (x Pos) String() string {
	if x == None {
		return "nil"
	}
	return fmt.Sprintf("%d", x.Label())
}

// FromLabel converts the paper's 1-based node number to a Pos.
func FromLabel(label int) Pos { return Pos(label - 1) }

// Dist returns the open-cube distance between two positions: the smallest d
// such that x and y belong to the same d-group (Definition 2.2). It depends
// only on the labeling and is invariant under b-transformations
// (Corollary 2.3). Dist(x, x) = 0.
func Dist(x, y Pos) int {
	return bits.Len32(uint32(x) ^ uint32(y))
}

// InitialFather returns the father of x in the pristine open-cube:
// x with its lowest set bit cleared, or None for the root 0.
func InitialFather(x Pos) Pos {
	if x == 0 {
		return None
	}
	return x & (x - 1)
}

// InitialPower returns the power of x in the pristine open-cube
// (Definition 2.1): the greatest p such that x roots a p-group.
func InitialPower(x Pos, pmax int) int {
	if x == 0 {
		return pmax
	}
	return bits.TrailingZeros32(uint32(x))
}

// GroupBase returns the smallest position of the p-group containing x.
func GroupBase(x Pos, p int) Pos {
	return x &^ (1<<p - 1)
}

// PGroup returns all members of the p-group containing x, in increasing
// position order. Groups are invariant under b-transformations
// (Corollary 2.2).
func PGroup(x Pos, p int) []Pos {
	base := GroupBase(x, p)
	out := make([]Pos, 1<<p)
	for i := range out {
		out[i] = base + Pos(i)
	}
	return out
}

// AtDist returns every position at open-cube distance exactly d from x,
// in increasing position order. There are 2^(d-1) of them for d ≥ 1
// (Section 5: "only 2^(d-1) nodes are at distance d of a given node").
func AtDist(x Pos, d int) []Pos {
	return AppendAtDist(make([]Pos, 0, atDistLen(d)), x, d)
}

// atDistLen returns |AtDist(·, d)|.
func atDistLen(d int) int {
	if d == 0 {
		return 1
	}
	return 1 << (d - 1)
}

// AppendAtDist appends AtDist(x, d) to dst and returns the extended
// slice; it allocates nothing when dst has capacity, which is what the
// search_father machinery relies on for its pooled candidate sets.
//
// The set {x XOR y : 2^(d-1) ≤ y < 2^d} fixes x's bits at or above d,
// flips bit d-1, and ranges over every combination of the bits below, so
// it is the contiguous range of 2^(d-1) positions starting at the
// (d-1)-group base of x XOR 2^(d-1) — no sorting is needed.
func AppendAtDist(dst []Pos, x Pos, d int) []Pos {
	if d == 0 {
		return append(dst, x)
	}
	base := GroupBase(x^(1<<(d-1)), d-1)
	for i := Pos(0); i < 1<<(d-1); i++ {
		dst = append(dst, base+i)
	}
	return dst
}

// Cube is an explicit father-pointer forest over the canonical labeling.
// A Cube produced by New is a valid open-cube; mutating methods such as
// BTransform preserve validity, while SetFather allows arbitrary (possibly
// invalid) configurations for testing and for mirroring a running
// algorithm's state.
//
// The zero value is not usable; construct with New.
type Cube struct {
	p      int
	father []Pos
}

// New returns the pristine 2^p-open-cube with the initial father relation.
func New(p int) (*Cube, error) {
	if p < 0 || p > MaxP {
		return nil, fmt.Errorf("ocube: order p=%d out of range [0,%d]", p, MaxP)
	}
	c := &Cube{p: p, father: make([]Pos, 1<<p)}
	for x := range c.father {
		c.father[x] = InitialFather(Pos(x))
	}
	return c, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(p int) *Cube {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of nodes, 2^p.
func (c *Cube) N() int { return len(c.father) }

// Father returns the father of x, or None if x is a root.
func (c *Cube) Father(x Pos) Pos { return c.father[x] }

// SetFather overwrites the father pointer of x without validation.
func (c *Cube) SetFather(x, f Pos) { c.father[x] = f }

// Fathers returns a copy of the father array.
func (c *Cube) Fathers() []Pos {
	out := make([]Pos, len(c.father))
	copy(out, c.father)
	return out
}

// Clone returns a deep copy.
func (c *Cube) Clone() *Cube {
	return &Cube{p: c.p, father: c.Fathers()}
}

// Root returns the unique position with father None, or None if the
// configuration has no or several roots.
func (c *Cube) Root() Pos {
	root := None
	for x, f := range c.father {
		if f == None {
			if root != None {
				return None
			}
			root = Pos(x)
		}
	}
	return root
}

// Power returns the power of x derived from its father pointer, following
// Proposition 2.1: power(x) = dist(x, father(x)) - 1, or pmax for a root.
func (c *Cube) Power(x Pos) int {
	f := c.father[x]
	if f == None {
		return c.p
	}
	return Dist(x, f) - 1
}

// Sons returns the sons of x in increasing position order.
func (c *Cube) Sons(x Pos) []Pos {
	var out []Pos
	for y, f := range c.father {
		if f == x {
			out = append(out, Pos(y))
		}
	}
	return out
}

// LastSon returns the last son of x — its son of power power(x)-1
// (Definition 2.3) — and whether x has one. In a valid open-cube every node
// of power > 0 has exactly one last son.
func (c *Cube) LastSon(x Pos) (Pos, bool) {
	want := c.Power(x) - 1
	if want < 0 {
		return None, false
	}
	for y, f := range c.father {
		if f == x && c.Power(Pos(y)) == want {
			return Pos(y), true
		}
	}
	return None, false
}

// IsBoundaryEdge reports whether (j, i) is a boundary edge: j is a son of i
// and power(i) = power(j) + 1 (Definition 2.3).
func (c *Cube) IsBoundaryEdge(j, i Pos) bool {
	return c.father[j] == i && c.Power(i) == c.Power(j)+1
}

// ErrNotBoundary is returned by BTransform for a non-boundary edge
// (Theorem 2.1: swapping over any other edge destroys the structure).
var ErrNotBoundary = errors.New("ocube: edge is not a boundary edge")

// BTransform swaps node j with its father over the boundary edge (j, i):
//
//	father(j) := father(i); father(i) := j
//
// Per Theorem 2.1 this preserves the open-cube structure, decreases
// power(i) by one and increases power(j) by one. It returns ErrNotBoundary
// if j's father edge is not a boundary edge.
func (c *Cube) BTransform(j Pos) error {
	i := c.father[j]
	if i == None || !c.IsBoundaryEdge(j, i) {
		return ErrNotBoundary
	}
	c.father[j] = c.father[i]
	c.father[i] = j
	return nil
}

// Validate checks that the configuration is an open-cube: recursively, each
// canonical d-group must consist of two valid (d-1)-open-cubes with exactly
// one father edge linking their roots, and the global root's father must be
// None. It returns nil if the configuration is a valid open-cube.
func (c *Cube) Validate() error {
	root, err := c.validate(0, Pos(c.N()))
	if err != nil {
		return err
	}
	if f := c.father[root]; f != None {
		return fmt.Errorf("ocube: global root %v has father %v, want nil", root, f)
	}
	return nil
}

// validate checks the half-open range [lo, hi) (a canonical group) and
// returns the unique node in the range whose father lies outside it.
func (c *Cube) validate(lo, hi Pos) (Pos, error) {
	if hi-lo == 1 {
		if c.father[lo] == lo {
			return None, fmt.Errorf("ocube: node %v is its own father", lo)
		}
		return lo, nil
	}
	mid := (lo + hi) / 2
	r1, err := c.validate(lo, mid)
	if err != nil {
		return None, err
	}
	r2, err := c.validate(mid, hi)
	if err != nil {
		return None, err
	}
	f1, f2 := c.father[r1], c.father[r2]
	switch {
	case f1 == r2 && f2 != r1:
		return r2, nil
	case f2 == r1 && f1 != r2:
		return r1, nil
	case f1 == r2 && f2 == r1:
		return None, fmt.Errorf("ocube: cycle between group roots %v and %v in [%v,%v)", r1, r2, lo, hi)
	default:
		return None, fmt.Errorf("ocube: group [%v,%v): subgroup roots %v (father %v) and %v (father %v) are not linked",
			lo, hi, r1, f1, r2, f2)
	}
}

// Depth returns the length of the longest branch (root to leaf edge count).
func (c *Cube) Depth() int {
	memo := make([]int, c.N())
	for i := range memo {
		memo[i] = -1
	}
	var depth func(x Pos) int
	depth = func(x Pos) int {
		if memo[x] >= 0 {
			return memo[x]
		}
		memo[x] = 0 // cycle guard; valid cubes have none
		f := c.father[x]
		d := 0
		if f != None {
			d = depth(f) + 1
		}
		memo[x] = d
		return d
	}
	max := 0
	for x := range c.father {
		if d := depth(Pos(x)); d > max {
			max = d
		}
	}
	return max
}

// Branch returns the path from x to its root, inclusive, following father
// pointers. It stops (returning what it has) if the walk exceeds N steps,
// which can only happen on invalid configurations with cycles.
func (c *Cube) Branch(x Pos) []Pos {
	out := []Pos{x}
	for c.father[x] != None && len(out) <= c.N() {
		x = c.father[x]
		out = append(out, x)
	}
	return out
}

// BranchBound verifies Proposition 2.3 for the branch from leaf x: the
// branch length r satisfies r ≤ log2(N) - n1, where n1 counts branch nodes
// that are not last sons. It returns (r, n1).
func (c *Cube) BranchBound(x Pos) (r, n1 int) {
	br := c.Branch(x)
	r = len(br) - 1
	for k := 0; k < r; k++ {
		if !c.IsBoundaryEdge(br[k], br[k+1]) {
			n1++
		}
	}
	return r, n1
}

// Render draws the tree as indented ASCII using the paper's 1-based node
// numbers, sons sorted by position, one node per line. Roots of the forest
// are drawn at the left margin.
func (c *Cube) Render() string {
	var b strings.Builder
	var walk func(x Pos, depth int)
	seen := make([]bool, c.N())
	walk = func(x Pos, depth int) {
		if seen[x] {
			return
		}
		seen[x] = true
		fmt.Fprintf(&b, "%s%v (power %d)\n", strings.Repeat("  ", depth), x, c.Power(x))
		for _, s := range c.Sons(x) {
			walk(s, depth+1)
		}
	}
	for x := range c.father {
		if c.father[x] == None {
			walk(Pos(x), 0)
		}
	}
	for x := range c.father {
		if !seen[x] {
			fmt.Fprintf(&b, "%v (unreachable, father %v)\n", Pos(x), c.father[x])
		}
	}
	return b.String()
}
