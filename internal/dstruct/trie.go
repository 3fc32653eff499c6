package dstruct

import (
	"encoding/binary"
	"slices"

	"qei/internal/mem"
)

// Trie with Aho-Corasick links — the Snort literal-matching structure
// (Sec. VI-B): a dictionary of keywords is compiled into an automaton;
// scanning an input string queries the trie once per input byte,
// following goto edges on match and fail links on mismatch. Within a
// node, the child edge is found by searching a small sorted index table,
// matching the paper's CFA description ("between MEM.N and COMP, we can
// insert a state to search the index table", Sec. III-A).
//
// Node layout:
//
//	offset 0:  fail link (8 B)
//	offset 8:  output value (8 B; 0 = no keyword ends here, else value)
//	offset 16: edge count (2 B) | kind (1 B: 0 sparse, 1 dense) | pad (5 B)
//	offset 24: edges
//
// Sparse nodes store count entries of [byte (1 B) | pad (7 B) | child
// (8 B)], sorted by byte and searched with binary search. High-fanout
// nodes (more than denseThreshold children — the root and shallow states
// of a big dictionary) use a dense 256-slot child-pointer array instead,
// the classic "full matrix for shallow states" layout real Aho-Corasick
// implementations use for speed: one probe per input byte.
const (
	trieOffFail   = 0
	trieOffOutput = 8
	trieOffCount  = 16
	trieOffKind   = 18
	trieOffEdges  = 24
	trieEdgeSize  = 16

	trieKindSparse = 0
	trieKindDense  = 1

	denseThreshold = 16
)

// Trie is the host handle to a compiled Aho-Corasick automaton in
// simulated memory.
type Trie struct {
	HeaderAddr mem.VAddr
	Root       mem.VAddr
	Keywords   int
	States     int
}

// hostTrieNode is the build-time (host-side) representation.
type hostTrieNode struct {
	children map[byte]*hostTrieNode
	// edges lists the bytes of children in ascending order, the order
	// the layout visits them in.
	edges  []byte
	fail   *hostTrieNode
	output uint64
	addr   mem.VAddr
}

// BuildTrie compiles the keyword dictionary into an Aho-Corasick
// automaton laid out in as. values[i] is reported when keywords[i]
// matches; values must be non-zero.
func BuildTrie(as *mem.AddressSpace, keywords [][]byte, values []uint64) *Trie {
	if len(keywords) != len(values) {
		panic("dstruct: keywords/values length mismatch")
	}
	root := &hostTrieNode{children: map[byte]*hostTrieNode{}}
	states := 1
	for i, w := range keywords {
		if values[i] == 0 {
			panic("dstruct: trie values must be non-zero")
		}
		cur := root
		for _, b := range w {
			next, ok := cur.children[b]
			if !ok {
				next = &hostTrieNode{children: map[byte]*hostTrieNode{}}
				cur.children[b] = next
				states++
			}
			cur = next
		}
		cur.output = values[i]
	}

	// BFS to set fail links (classic Aho-Corasick construction).
	queue := []*hostTrieNode{}
	for _, c := range root.children {
		c.fail = root
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for b, c := range n.children {
			f := n.fail
			for f != nil {
				if fc, ok := f.children[b]; ok {
					c.fail = fc
					break
				}
				f = f.fail
			}
			if c.fail == nil {
				c.fail = root
			}
			if c.output == 0 && c.fail.output != 0 {
				// Propagate outputs along fail chains so a single output
				// check per state suffices.
				c.output = c.fail.output
			}
			queue = append(queue, c)
		}
	}

	// Lay out nodes: allocate, then fill (children need addresses first).
	var all []*hostTrieNode
	// Every node but the root is one edge, so one array holds every
	// node's sorted edge bytes.
	edges := make([]byte, 0, states-1)
	var collect func(n *hostTrieNode)
	collect = func(n *hostTrieNode) {
		all = append(all, n)
		// Deterministic order: sorted bytes.
		start := len(edges)
		for b := range n.children {
			edges = append(edges, b)
		}
		n.edges = edges[start:]
		slices.Sort(n.edges)
		for _, b := range n.edges {
			collect(n.children[b])
		}
	}
	collect(root)
	for _, n := range all {
		var size uint64
		if len(n.children) > denseThreshold {
			size = trieOffEdges + 256*8
		} else {
			size = uint64(trieOffEdges + trieEdgeSize*len(n.children))
		}
		size = (size + mem.LineSize - 1) &^ (mem.LineSize - 1)
		n.addr = as.Alloc(size, mem.LineSize)
	}
	for _, n := range all {
		fail := uint64(0)
		if n.fail != nil {
			fail = uint64(n.fail.addr)
		}
		as.MustWrite(n.addr+trieOffFail, encodeU64(fail))
		as.MustWrite(n.addr+trieOffOutput, encodeU64(n.output))
		dense := len(n.children) > denseThreshold
		cnt := make([]byte, 8)
		binary.LittleEndian.PutUint16(cnt, uint16(len(n.children)))
		if dense {
			cnt[2] = trieKindDense
		}
		as.MustWrite(n.addr+trieOffCount, cnt)
		if dense {
			for _, b := range n.edges {
				as.MustWrite(n.addr+trieOffEdges+mem.VAddr(int(b)*8), encodeU64(uint64(n.children[b].addr)))
			}
			continue
		}
		for i, b := range n.edges {
			edge := make([]byte, trieEdgeSize)
			edge[0] = b
			binary.LittleEndian.PutUint64(edge[8:], uint64(n.children[b].addr))
			as.MustWrite(n.addr+trieOffEdges+mem.VAddr(i*trieEdgeSize), edge)
		}
	}

	hdr := Header{
		Root:   root.addr,
		Type:   TypeTrie,
		KeyLen: 1, // queries advance one byte at a time
		Size:   uint64(states),
	}
	return &Trie{
		HeaderAddr: WriteHeader(as, hdr),
		Root:       root.addr,
		Keywords:   len(keywords),
		States:     states,
	}
}

// trieEdgeCount reads a node's edge count.
func trieEdgeCount(as *mem.AddressSpace, node mem.VAddr) (int, error) {
	c, err := as.ReadU16(node + trieOffCount)
	return int(c), err
}

// trieNodeDense reports whether the node uses the dense child array.
func trieNodeDense(as *mem.AddressSpace, node mem.VAddr) (bool, error) {
	var buf [1]byte
	if err := as.Read(node+trieOffKind, buf[:]); err != nil {
		return false, err
	}
	return buf[0] == trieKindDense, nil
}

// trieEdgeSlot returns the address probed for input byte b at probe step
// i (dense nodes probe exactly one slot).
func trieEdgeSlot(node mem.VAddr, dense bool, i int, b byte) mem.VAddr {
	if dense {
		return node + trieOffEdges + mem.VAddr(int(b)*8)
	}
	return node + trieOffEdges + mem.VAddr(i*trieEdgeSize)
}

// TrieFindEdge searches node's index table for byte b, returning the
// child address (0 if absent) and the number of edge slots examined (the
// index-table search cost charged by walkers: 1 for dense nodes, a
// binary search for sparse ones).
func TrieFindEdge(as *mem.AddressSpace, node mem.VAddr, b byte) (child mem.VAddr, probes int, err error) {
	var buf [8]mem.VAddr
	child, probes, _, err = TrieFindEdgeProbes(as, node, b, buf[:0])
	return child, probes, err
}

// TrieFindEdgeProbes is TrieFindEdge that also appends the probed slot
// addresses to slots and returns the extended slice, so walkers can
// charge the exact lines touched. A caller that passes storage it owns
// (a stack array is enough for a well-formed node) allocates nothing.
func TrieFindEdgeProbes(as *mem.AddressSpace, node mem.VAddr, b byte, slots []mem.VAddr) (child mem.VAddr, probes int, _ []mem.VAddr, err error) {
	dense, err := trieNodeDense(as, node)
	if err != nil {
		return 0, 0, slots, err
	}
	if dense {
		slot := trieEdgeSlot(node, true, 0, b)
		v, err := as.ReadU64(slot)
		if err != nil {
			return 0, 1, slots, err
		}
		return mem.VAddr(v), 1, append(slots, slot), nil
	}
	n, err := trieEdgeCount(as, node)
	if err != nil {
		return 0, 0, slots, err
	}
	lo, hi := 0, n-1
	for lo <= hi {
		mid := (lo + hi) / 2
		ea := node + trieOffEdges + mem.VAddr(mid*trieEdgeSize)
		var buf [trieEdgeSize]byte
		if err := as.Read(ea, buf[:]); err != nil {
			return 0, probes + 1, slots, err
		}
		probes++
		slots = append(slots, ea)
		switch {
		case buf[0] == b:
			return mem.VAddr(binary.LittleEndian.Uint64(buf[8:])), probes, slots, nil
		case buf[0] < b:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, probes, slots, nil
}

// TrieFail reads a node's fail link.
func TrieFail(as *mem.AddressSpace, node mem.VAddr) (mem.VAddr, error) {
	f, err := as.ReadU64(node + trieOffFail)
	return mem.VAddr(f), err
}

// TrieOutput reads a node's output value.
func TrieOutput(as *mem.AddressSpace, node mem.VAddr) (uint64, error) {
	return as.ReadU64(node + trieOffOutput)
}

// ScanTrieRef is the host-side reference scan: it feeds input through the
// automaton and returns the values of all matched keywords, in match
// order.
func ScanTrieRef(as *mem.AddressSpace, headerAddr mem.VAddr, input []byte) ([]uint64, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return nil, err
	}
	var matches []uint64
	state := h.Root
	for _, b := range input {
		for {
			child, _, err := TrieFindEdge(as, state, b)
			if err != nil {
				return nil, err
			}
			if child != 0 {
				state = child
				break
			}
			if state == h.Root {
				break
			}
			state, err = TrieFail(as, state)
			if err != nil {
				return nil, err
			}
		}
		out, err := TrieOutput(as, state)
		if err != nil {
			return nil, err
		}
		if out != 0 {
			matches = append(matches, out)
		}
	}
	return matches, nil
}
