package qei

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// StructKind identifies the data-structure type of a Table. For the
// built-in structures the numeric value equals the Fig. 4 header type
// code, so a StructKind doubles as the firmware selector byte.
type StructKind uint8

// The built-in structure kinds (header type codes 1–7) plus KindCustom
// for application firmware registered through RegisterFirmware.
const (
	KindInvalid    StructKind = 0
	KindLinkedList StructKind = 1
	KindHashTable  StructKind = 2
	KindCuckoo     StructKind = 3
	KindSkipList   StructKind = 4
	KindBST        StructKind = 5
	KindTrie       StructKind = 6
	KindBTree      StructKind = 7
	KindCustom     StructKind = 255
)

// kindInfo is everything the root package knows about one structure
// kind. The query engines live elsewhere, both selected by the header
// type code: CFA firmware and level-wise rounds in internal/cfa and
// internal/qei, the software walkers in internal/baseline.
type kindInfo struct {
	// names holds the canonical name first, then the parse aliases.
	names []string
	// check validates builder inputs before anything is laid out.
	check func(keys [][]byte, values []uint64, cfg buildConfig) error
	// build lays out the read-only structure and returns its header
	// address and key length; nil for kinds without a generic builder.
	build func(s *System, keys [][]byte, values []uint64, cfg buildConfig) (mem.VAddr, uint16)
	// buildMutable lays out the updatable variant and returns its
	// software mutator; nil for kinds without software mutators.
	buildMutable func(s *System, keys [][]byte, values []uint64, cfg buildConfig) (mem.VAddr, uint16, mutator)
}

// mutableBTreeFanout is deliberately smaller than the read-only B+-tree
// fanout of 16 so update workloads exercise node splits and merges at
// test scale rather than only at millions of keys.
const mutableBTreeFanout = 8

// kindTable is indexed by StructKind (the header type code).
var kindTable = [...]kindInfo{
	KindInvalid: {names: []string{"invalid"}},
	KindLinkedList: {
		names: []string{"linkedlist", "list"},
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			l := dstruct.BuildLinkedList(s.m.AS, keys, values)
			return l.HeaderAddr, l.KeyLen
		},
		buildMutable: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16, mutator) {
			l := dstruct.BuildLinkedList(s.m.AS, keys, values)
			return l.HeaderAddr, l.KeyLen, listMutator{l}
		},
	},
	KindHashTable: {
		names: []string{"hashtable", "hash"},
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			h := dstruct.BuildHashTable(s.m.AS, uint64(len(keys)/4), 0x51ED, keys, values)
			return h.HeaderAddr, h.KeyLen
		},
	},
	KindCuckoo: {
		names: []string{"cuckoo"},
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			c := dstruct.BuildCuckoo(s.m.AS, uint64(len(keys)/2), 8, 0x9E37, keys, values)
			return c.HeaderAddr, c.KeyLen
		},
		// One bucket per key leaves room for inserts before the first
		// online rehash.
		buildMutable: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16, mutator) {
			c := dstruct.BuildCuckoo(s.m.AS, uint64(len(keys)), 8, 0x9E37, keys, values)
			return c.HeaderAddr, c.KeyLen, cuckooMutator{c}
		},
	},
	KindSkipList: {
		names: []string{"skiplist"},
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			sl := dstruct.BuildSkipList(s.m.AS, 7, keys, values)
			return sl.HeaderAddr, sl.KeyLen
		},
		buildMutable: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16, mutator) {
			sl := dstruct.BuildSkipList(s.m.AS, 7, keys, values)
			return sl.HeaderAddr, sl.KeyLen, skipListMutator{sl, rand.New(rand.NewSource(s.seed))}
		},
	},
	KindBST: {
		names: []string{"bst"},
		check: checkBST,
		build: func(s *System, keys [][]byte, values []uint64, cfg buildConfig) (mem.VAddr, uint16) {
			b := dstruct.BuildBST(s.m.AS, 7, cfg.payload, keys, values)
			return b.HeaderAddr, b.KeyLen
		},
		buildMutable: func(s *System, keys [][]byte, values []uint64, cfg buildConfig) (mem.VAddr, uint16, mutator) {
			b := dstruct.BuildBST(s.m.AS, 7, cfg.payload, keys, values)
			return b.HeaderAddr, b.KeyLen, bstMutator{b}
		},
	},
	KindTrie: {
		names: []string{"trie"},
		check: checkDict,
		// The keys are the dictionary's keywords; a trie answers Scan
		// queries over variable-length input, so its key length is 1.
		build: func(s *System, keywords [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			return dstruct.BuildTrie(s.m.AS, keywords, values).HeaderAddr, 1
		},
	},
	KindBTree: {
		names: []string{"btree"},
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16) {
			bt := dstruct.BuildBTree(s.m.AS, 16, keys, values)
			return bt.HeaderAddr, bt.KeyLen
		},
		buildMutable: func(s *System, keys [][]byte, values []uint64, _ buildConfig) (mem.VAddr, uint16, mutator) {
			bt := dstruct.BuildBTree(s.m.AS, mutableBTreeFanout, keys, values)
			return bt.HeaderAddr, bt.KeyLen, btreeMutator{bt}
		},
	},
}

// customKind is KindCustom's row: a name only, since custom firmware
// tables are laid out by the application.
var customKind = kindInfo{names: []string{"custom"}}

// info returns k's row, or nil for a value that names no kind.
func (k StructKind) info() *kindInfo {
	if int(k) < len(kindTable) {
		return &kindTable[k]
	}
	if k == KindCustom {
		return &customKind
	}
	return nil
}

// StructKinds lists the built-in kinds in header-type-code order.
func StructKinds() []StructKind {
	return []StructKind{
		KindLinkedList, KindHashTable, KindCuckoo, KindSkipList,
		KindBST, KindTrie, KindBTree,
	}
}

func (k StructKind) String() string {
	if r := k.info(); r != nil {
		return r.names[0]
	}
	return fmt.Sprintf("structkind(%d)", uint8(k))
}

// TypeCode returns the header type byte the kind maps to, or 0 when the
// kind has no fixed code (custom firmware chooses its own).
func (k StructKind) TypeCode() uint8 {
	if k >= KindLinkedList && k <= KindBTree {
		return uint8(k)
	}
	return 0
}

var kindNormalizer = strings.NewReplacer(" ", "", "-", "", "_", "")

// ParseStructKind maps a structure name ("cuckoo", "skiplist", …) back
// to its StructKind; it accepts any case, ignores spaces, hyphens, and
// underscores ("skip list", "b-tree"), and takes the aliases "list"
// (linkedlist) and "hash" (hashtable). Unknown names return
// ErrUnknownKind.
func ParseStructKind(s string) (StructKind, error) {
	name := strings.ToLower(kindNormalizer.Replace(s))
	for _, k := range append(StructKinds(), KindCustom) {
		if slices.Contains(k.info().names, name) {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("%w %q", ErrUnknownKind, s)
}
