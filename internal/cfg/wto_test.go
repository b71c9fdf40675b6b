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
		w := wtoOf(c.succs)
		if got := renderWTO(w.Sequence); got != c.want {
			t.Errorf("%s: WTO %q, want %q", c.name, got, c.want)
		}
		if err := checkWTO(c.succs, w); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// FuzzWTOOf checks the contract the engine's one-pass sweep relies on, on
// graphs of up to 12 vertices decoded from the input: every vertex reachable
// from 0 appears once and no other does; every edge between reachable
// vertices goes forward in the flattened order or to the head of a
// component holding its source; NumComponents counts the components.
func FuzzWTOOf(f *testing.F) {
	for _, c := range wtoCases {
		f.Add(encodeGraph(c.succs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		succs := decodeGraph(data)
		if err := checkWTO(succs, wtoOf(succs)); err != nil {
			t.Fatalf("graph %v: %v", succs, err)
		}
	})
}

func wtoOf(succs [][]ir.BlockID) *cfg.WTO {
	return cfg.WTOOf(len(succs), 0, func(b ir.BlockID) []ir.BlockID { return succs[b] })
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

func renderWTO(elems []cfg.WTOElem) string {
	parts := make([]string, len(elems))
	for i, el := range elems {
		parts[i] = fmt.Sprint(el.Block)
		if el.Comp != nil {
			parts[i] = "(" + strings.TrimSpace(parts[i]+" "+renderWTO(el.Comp.Body)) + ")"
		}
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
	// pos is each vertex's place in the flattened order; members lists the
	// vertices of the component each head heads.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	members := map[ir.BlockID][]ir.BlockID{}
	order, comps := 0, 0
	var flatten func(elems []cfg.WTOElem, open []ir.BlockID) error
	flatten = func(elems []cfg.WTOElem, open []ir.BlockID) error {
		for _, el := range elems {
			v := el.Block
			if v < 0 || int(v) >= n {
				return fmt.Errorf("vertex %d out of range", v)
			}
			if pos[v] >= 0 {
				return fmt.Errorf("vertex %d appears twice", v)
			}
			pos[v] = order
			order++
			inner := open
			if el.Comp != nil {
				comps++
				if el.Comp.Head != v {
					return fmt.Errorf("component at %d has head %d", v, el.Comp.Head)
				}
				inner = append(open[:len(open):len(open)], v)
			}
			for _, h := range inner {
				members[h] = append(members[h], v)
			}
			if el.Comp != nil {
				if err := flatten(el.Comp.Body, inner); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := flatten(w.Sequence, nil); err != nil {
		return err
	}
	for v := range n {
		if reach[v] != (pos[v] >= 0) {
			return fmt.Errorf("vertex %d: reachable %v, in the order %v", v, reach[v], pos[v] >= 0)
		}
	}
	if w.NumComponents != comps {
		return fmt.Errorf("NumComponents %d, the order has %d components", w.NumComponents, comps)
	}
	for u := range n {
		if !reach[u] {
			continue
		}
		for _, v := range succs[u] {
			if pos[v] > pos[u] || slices.Contains(members[v], ir.BlockID(u)) {
				continue
			}
			return fmt.Errorf("edge %d→%d goes back to a vertex that heads no component holding %d", u, v, u)
		}
	}
	return nil
}
