package cfg_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"specabsint/internal/cfg"
	"specabsint/internal/ir"
)

// wtoCases are small graphs rooted at vertex 0, with the ordering WTOOf
// gives each in Bourdoncle's notation: a component is parenthesized, its
// head first.
var wtoCases = []struct {
	name  string
	succs [][]ir.BlockID
	want  string
}{
	{"straight line", [][]ir.BlockID{{1}, {2}, {3}, {}}, "0 1 2 3"},
	{"diamond", [][]ir.BlockID{{1, 2}, {3}, {3}, {}}, "0 2 1 3"},
	{"self-loop", [][]ir.BlockID{{1}, {1, 2}, {}}, "0 (1) 2"},
	{"nested loops", [][]ir.BlockID{{1}, {2, 5}, {3}, {2, 4}, {1}, {}}, "0 (1 (2 3) 4) 5"},
	{"two-entry cycle", [][]ir.BlockID{{1, 2}, {2}, {1, 3}, {}}, "0 (1 2) 3"},
	{"unreachable vertex", [][]ir.BlockID{{1}, {3}, {1}, {}}, "0 1 3"},
	{"duplicate edge", [][]ir.BlockID{{1, 1}, {2}, {1, 1, 3}, {}}, "0 (1 2) 3"},
}

func TestWTOOf(t *testing.T) {
	for _, c := range wtoCases {
		w := cfg.WTOOf(c.succs, 0)
		if err := checkWTO(c.succs, w); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := renderWTO(w, 0, len(w.Order)); got != c.want {
			t.Errorf("%s: WTO %q, want %q", c.name, got, c.want)
		}
	}
}

// FuzzWTOOf checks the flat form's contract, which the engine's sweep, its
// lane worklist and the WCET schema rely on, on graphs of up to 12 vertices
// decoded from the input, self-loops included: every vertex reachable from 0
// has one position and no other vertex has one; End ranges nest; every edge
// goes forward in the order or to the head of a component holding its
// source; Head marks exactly the component heads, and NumComponents counts
// them.
func FuzzWTOOf(f *testing.F) {
	for _, c := range wtoCases {
		f.Add(encodeGraph(c.succs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		succs := decodeGraph(data)
		if err := checkWTO(succs, cfg.WTOOf(succs, 0)); err != nil {
			t.Fatalf("graph %v: %v", succs, err)
		}
	})
}

// decodeGraph reads a vertex count (1–12) and then, per vertex, a successor
// count (0–3) followed by that many successors. Missing bytes read as 0.
func decodeGraph(data []byte) [][]ir.BlockID {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	succs := make([][]ir.BlockID, 1+next()%12)
	for v := range succs {
		for k := next() % 4; k > 0; k-- {
			succs[v] = append(succs[v], ir.BlockID(next()%len(succs)))
		}
	}
	return succs
}

// encodeGraph is decodeGraph's inverse for graphs within its limits.
func encodeGraph(succs [][]ir.BlockID) []byte {
	data := []byte{byte(len(succs) - 1)}
	for _, ss := range succs {
		data = append(data, byte(len(ss)))
		for _, s := range ss {
			data = append(data, byte(s))
		}
	}
	return data
}

// renderWTO writes positions [lo, hi) of w's order in Bourdoncle's notation:
// a component is parenthesized, its head first.
func renderWTO(w *cfg.WTO, lo, hi int) string {
	var parts []string
	for p := lo; p < hi; p = w.End[p] {
		part := fmt.Sprint(w.Order[p])
		if w.Head[w.Order[p]] {
			part = "(" + strings.TrimSpace(part+" "+renderWTO(w, p+1, w.End[p])) + ")"
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, " ")
}

// checkWTO checks w against the graph it orders.
func checkWTO(succs [][]ir.BlockID, w *cfg.WTO) error {
	n := len(succs)
	reach := make([]bool, n)
	reach[0] = true
	for stack := []ir.BlockID{0}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[v] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(w.Pos) != n || len(w.Head) != n || len(w.Succs) != n || len(w.End) != len(w.Order) {
		return fmt.Errorf("%d vertices: %d Pos, %d Head, %d Succs; %d positions, %d End",
			n, len(w.Pos), len(w.Head), len(w.Succs), len(w.Order), len(w.End))
	}
	for v := range n {
		if !slices.Equal(w.Succs[v], succs[v]) {
			return fmt.Errorf("Succs[%d] = %v, the graph has %v", v, w.Succs[v], succs[v])
		}
	}
	// Order and Pos invert each other, and exactly the reachable vertices
	// have a position.
	for p, v := range w.Order {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("vertex %d out of range", v)
		}
		if w.Pos[v] != p {
			return fmt.Errorf("vertex %d at position %d has Pos %d", v, p, w.Pos[v])
		}
	}
	for v := range n {
		if reach[v] != (w.Pos[v] >= 0) {
			return fmt.Errorf("vertex %d: reachable %v, Pos %d", v, reach[v], w.Pos[v])
		}
		if w.Pos[v] < 0 && w.Head[v] {
			return fmt.Errorf("unreachable vertex %d marked as a head", v)
		}
	}
	// Extents nest: each lies inside the one of the innermost component
	// open at its position, and only a head's extent holds a body.
	var open []int
	comps := 0
	for p, v := range w.Order {
		for len(open) > 0 && w.End[open[len(open)-1]] <= p {
			open = open[:len(open)-1]
		}
		limit := len(w.Order)
		if len(open) > 0 {
			limit = w.End[open[len(open)-1]]
		}
		if w.End[p] <= p || w.End[p] > limit {
			return fmt.Errorf("vertex %d at position %d: End %d outside (%d, %d]", v, p, w.End[p], p, limit)
		}
		if !w.Head[v] {
			if w.End[p] != p+1 {
				return fmt.Errorf("vertex %d heads no component but spans [%d, %d)", v, p, w.End[p])
			}
			continue
		}
		comps++
		open = append(open, p)
	}
	if w.NumComponents != comps {
		return fmt.Errorf("NumComponents %d, the order has %d components", w.NumComponents, comps)
	}
	// Every edge goes forward, or back to the head of a component holding
	// its source, and every head has such an edge: a component is a loop.
	looped := make([]bool, n)
	for u := range n {
		if !reach[u] {
			continue
		}
		pu := w.Pos[u]
		for _, v := range succs[u] {
			pv := w.Pos[v]
			if pv > pu {
				continue
			}
			if !w.Head[v] || pu >= w.End[pv] {
				return fmt.Errorf("edge %d→%d goes back to a vertex that heads no component holding %d", u, v, u)
			}
			looped[v] = true
		}
	}
	for v := range n {
		if w.Head[v] && !looped[v] {
			return fmt.Errorf("head %d has no edge back from its component", v)
		}
	}
	return nil
}
