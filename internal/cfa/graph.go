package cfa

import (
	"fmt"
	"sort"
	"strings"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Firmware static analysis. The CEE is microcoded and firmware-updatable
// (Sec. IV-B); before new transition rules are loaded, the tooling below
// explores a program's reachable state graph by symbolic execution over
// a miniature instance of its data structure and checks the properties
// real microcode validation would insist on: every reachable state can
// reach a terminal state, the state count fits the QST's one-byte
// current_state field, and no transition leaves the declared state set.
// ToDOT renders the explored graph in Graphviz form — the shape of the
// paper's Fig. 3.

// Edge is one observed transition of a CFA.
type Edge struct {
	From, To StateID
	// Ops summarizes the micro-ops issued on this transition, e.g.
	// "mem", "cmp", "mem+cmp".
	Ops string
}

// Graph is the explored state graph of one program.
type Graph struct {
	Program string
	Edges   []Edge
	// States is the set of states observed (including terminals).
	States []StateID
}

// explore walks prog over the given queries, recording every transition
// taken. A walk that ends in a fault or trips a walk guard fails the
// exploration.
func explore(prog Program, qs []*Query) (*Graph, error) {
	seen := map[Edge]bool{}
	states := map[StateID]bool{StateStart: true}
	g := &Graph{Program: prog.Name()}
	for _, q := range qs {
		w := NewWalk(prog, q, false)
		for {
			from := w.state
			req, err := w.Next()
			if err != nil {
				return nil, fmt.Errorf("cfa: %s faulted during exploration: %w", prog.Name(), err)
			}
			var kinds []string
			have := map[string]bool{}
			for _, op := range req.Ops {
				k := op.Kind.String()
				if !have[k] {
					have[k] = true
					kinds = append(kinds, k)
				}
			}
			sort.Strings(kinds)
			e := Edge{From: from, To: req.Next, Ops: strings.Join(kinds, "+")}
			if !seen[e] {
				seen[e] = true
				g.Edges = append(g.Edges, e)
			}
			states[req.Next] = true
			if req.Next == StateDone {
				break
			}
		}
	}
	for s := range states {
		g.States = append(g.States, s)
	}
	sort.Slice(g.States, func(i, j int) bool { return g.States[i] < g.States[j] })
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Ops < b.Ops
	})
	return g, nil
}

// ExploreBuiltin builds a miniature instance of the data structure the
// built-in program serves, runs hit and miss queries through it, and
// returns the explored state graph.
func ExploreBuiltin(prog Program) (*Graph, error) {
	qs, builtin := probeQueries(prog)
	if !builtin {
		return nil, fmt.Errorf("cfa: no miniature builder for type %d", prog.TypeCode())
	}
	return explore(prog, qs)
}

// probeQueries builds the structure prog is explored over and the
// queries that walk it. A built-in type code gets a miniature instance
// of its structure with hit, deep-hit and miss probes (plus a scan for
// the trie). Any other type code gets a minimal synthetic structure —
// a header of the program's own type whose Root points at zeroed
// memory — and one probe with a non-zero key: null pointers and
// zero-length fields are exactly what a terminating walk must cope
// with. builtin reports which one was built.
func probeQueries(prog Program) (qs []*Query, builtin bool) {
	as := mem.NewAddressSpace(mem.NewPhysical())
	keys := make([][]byte, 8)
	vals := make([]uint64, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d-padddddd", i))[:16]
		vals[i] = uint64(i) + 1
	}
	probes := [][]byte{keys[0], keys[7], []byte("absent-key-16byt")} // front hit, deep hit, miss
	builtin = true
	var header mem.VAddr
	switch prog.TypeCode() {
	case dstruct.TypeLinkedList:
		header = dstruct.BuildLinkedList(as, keys, vals).HeaderAddr
	case dstruct.TypeHashTable:
		header = dstruct.BuildHashTable(as, 4, 3, keys, vals).HeaderAddr
	case dstruct.TypeCuckoo:
		header = dstruct.BuildCuckoo(as, 8, 4, 3, keys, vals).HeaderAddr
	case dstruct.TypeSkipList:
		header = dstruct.BuildSkipList(as, 3, keys, vals).HeaderAddr
	case dstruct.TypeBST:
		header = dstruct.BuildBST(as, 3, 32, keys, vals).HeaderAddr
	case dstruct.TypeTrie:
		header = dstruct.BuildTrie(as, keys, vals).HeaderAddr
		probes = append(probes, []byte("zz key-03-paddddddzz trailing"))
	case dstruct.TypeBTree:
		header = dstruct.BuildBTree(as, 4, keys, vals).HeaderAddr
	default:
		root := as.AllocLines(512) // zeroed scratch the probe walk may read
		header = dstruct.WriteHeader(as, dstruct.Header{
			Root: root, Type: prog.TypeCode(), Subtype: 1, KeyLen: 16, Size: 1, Aux: 1, Aux2: 1,
		})
		probes = [][]byte{[]byte("validation-probe")}
		builtin = false
	}
	hdr, _ := dstruct.ReadHeader(as, header) // just written, so mapped
	for _, key := range probes {
		ka := as.AllocLines(uint64(len(key)))
		as.MustWrite(ka, key)
		qs = append(qs, &Query{AS: as, HeaderAddr: header, Header: hdr, KeyAddr: ka, Key: key})
	}
	return qs, builtin
}

// Validate checks the explored graph's firmware invariants.
func (g *Graph) Validate() error {
	if len(g.States) > 256 {
		return fmt.Errorf("cfa: %s uses %d states; the QST state field holds 256", g.Program, len(g.States))
	}
	reachedDone := false
	for _, s := range g.States {
		if s == StateDone {
			reachedDone = true
		}
	}
	if !reachedDone {
		return fmt.Errorf("cfa: %s never reached DONE during exploration", g.Program)
	}
	// Every non-terminal state must have an outgoing edge.
	out := map[StateID]bool{}
	for _, e := range g.Edges {
		out[e.From] = true
	}
	for _, s := range g.States {
		if s == StateDone || s == StateException {
			continue
		}
		if !out[s] {
			return fmt.Errorf("cfa: %s state %d has no outgoing transition", g.Program, s)
		}
	}
	return nil
}

// stateName renders a StateID using the shared naming convention.
func stateName(s StateID) string {
	switch s {
	case StateStart:
		return "START"
	case StateDone:
		return "DONE"
	case StateException:
		return "EXCEPTION"
	case stFetch:
		return "FETCH"
	case stComp:
		return "COMP"
	case stNext:
		return "MEM.N"
	case stHash:
		return "HASH"
	case stIndex:
		return "INDEX"
	default:
		return fmt.Sprintf("S%d", uint8(s))
	}
}

// ToDOT renders the graph in Graphviz DOT form (Fig. 3 style).
func (g *Graph) ToDOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", g.Program)
	for _, s := range g.States {
		shape := "circle"
		if s == StateDone || s == StateException {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", stateName(s), shape)
	}
	for _, e := range g.Edges {
		label := e.Ops
		if label == "" {
			label = "ε"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", stateName(e.From), stateName(e.To), label)
	}
	b.WriteString("}\n")
	return b.String()
}
