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
// internal/qei, the software walkers in internal/baseline. The update
// routines belong to the structures (dstruct.Updatable).
type kindInfo struct {
	// aliases are the names ParseStructKind accepts besides the
	// canonical dstruct.TypeName.
	aliases []string
	// check validates builder inputs before anything is laid out.
	check func(keys [][]byte, values []uint64) error
	// build lays out the structure — its updatable variant when mutable
	// is set — and returns its header address, key length and update
	// handle; nil for kinds without a generic builder.
	build func(s *System, keys [][]byte, values []uint64, mutable bool) (mem.VAddr, uint16, dstruct.Updatable)
	// updatable marks the kinds BuildMutable accepts.
	updatable bool
}

// mutableBTreeFanout is deliberately smaller than the read-only B+-tree
// fanout of 16 so update workloads exercise node splits and merges at
// test scale rather than only at millions of keys.
const mutableBTreeFanout = 8

// kindTable is indexed by StructKind (the header type code).
var kindTable = [...]kindInfo{
	KindInvalid: {},
	KindLinkedList: {
		aliases: []string{"list"},
		check:   checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ bool) (mem.VAddr, uint16, dstruct.Updatable) {
			l := dstruct.BuildLinkedList(s.m.AS, keys, values)
			return l.HeaderAddr, l.KeyLen, l
		},
		updatable: true,
	},
	KindHashTable: {
		aliases: []string{"hash"},
		check:   checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ bool) (mem.VAddr, uint16, dstruct.Updatable) {
			h := dstruct.BuildHashTable(s.m.AS, uint64(len(keys)/4), 0x51ED, keys, values)
			return h.HeaderAddr, h.KeyLen, nil
		},
	},
	KindCuckoo: {
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, mutable bool) (mem.VAddr, uint16, dstruct.Updatable) {
			buckets := uint64(len(keys) / 2)
			if mutable {
				// One bucket per key leaves room for inserts before the
				// first online rehash.
				buckets = uint64(len(keys))
			}
			c := dstruct.BuildCuckoo(s.m.AS, buckets, 8, 0x9E37, keys, values)
			return c.HeaderAddr, c.KeyLen, c
		},
		updatable: true,
	},
	KindSkipList: {
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, mutable bool) (mem.VAddr, uint16, dstruct.Updatable) {
			sl := dstruct.BuildSkipList(s.m.AS, 7, keys, values)
			if mutable {
				sl.Towers = rand.New(rand.NewSource(s.seed))
			}
			return sl.HeaderAddr, sl.KeyLen, sl
		},
		updatable: true,
	},
	KindBST: {
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, _ bool) (mem.VAddr, uint16, dstruct.Updatable) {
			b := dstruct.BuildBST(s.m.AS, 7, 0, keys, values)
			return b.HeaderAddr, b.KeyLen, b
		},
		updatable: true,
	},
	KindTrie: {
		check: checkDict,
		// The keys are the dictionary's keywords; a trie answers Scan
		// queries over variable-length input, so its key length is 1.
		build: func(s *System, keywords [][]byte, values []uint64, _ bool) (mem.VAddr, uint16, dstruct.Updatable) {
			return dstruct.BuildTrie(s.m.AS, keywords, values).HeaderAddr, 1, nil
		},
	},
	KindBTree: {
		check: checkKV,
		build: func(s *System, keys [][]byte, values []uint64, mutable bool) (mem.VAddr, uint16, dstruct.Updatable) {
			fanout := 16
			if mutable {
				fanout = mutableBTreeFanout
			}
			bt := dstruct.BuildBTree(s.m.AS, fanout, keys, values)
			return bt.HeaderAddr, bt.KeyLen, bt
		},
		updatable: true,
	},
}

// info returns k's row, or nil for a value that has none (KindCustom
// and undefined kinds).
func (k StructKind) info() *kindInfo {
	if int(k) < len(kindTable) {
		return &kindTable[k]
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
	if k <= KindBTree {
		return dstruct.TypeName(uint8(k))
	}
	if k == KindCustom {
		return "custom"
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
		if name == k.String() || k.info() != nil && slices.Contains(k.info().aliases, name) {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("%w %q", ErrUnknownKind, s)
}
