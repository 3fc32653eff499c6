package qei

import (
	"errors"
	"fmt"
	"math/rand"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Update operations. Per the paper (Sec. IV-A), QEI accelerates queries
// only; inserts and deletes remain software routines. Because the
// accelerator and the cores read the same coherent simulated memory, a
// Query issued immediately after an update observes it.
//
// Consistency between writers and in-flight queries follows the
// epoch-based protocol of internal/epoch: every query pins the current
// epoch at QST admission, mutators retire unlinked nodes into the
// epoch's limbo list instead of freeing them, and the allocator only
// reuses a node's memory once the QST has drained past the retiring
// epoch. A query that raced an unlink therefore still walks valid (if
// stale) bytes — the snapshot-at-admission semantics the paper's
// read-intensive usage model assumes — and the read-after-retire
// watcher (epoch/read_after_retire) proves the protocol holds.
//
// Tables returned by Build are immutable descriptors; to mutate a
// structure, build it with BuildMutable, which returns a handle carrying
// the mutation state.

// maxLoad is the cuckoo load-factor ceiling that triggers an online
// rehash before the kick loop starts thrashing (DPDK resizes in the
// same regime).
const maxLoad = 0.85

// MutStats counts a mutable table's software-routine activity: the
// operations applied and the structural maintenance (rehash, split,
// merge, rebuild) they caused. TestCuckooOnlineRehash and
// TestMutableBTree assert that maintenance runs under in-flight reads.
type MutStats struct {
	// Inserts and Deletes count successful operations (Deletes only
	// those that removed a present key).
	Inserts uint64
	Deletes uint64
	// Rehashes counts online cuckoo bucket-array doublings; Rebuilds
	// counts BST scapegoat rebuilds.
	Rehashes uint64
	Rebuilds uint64
	// Splits and Merges count B+-tree node rebalances.
	Splits uint64
	Merges uint64
	// RetiredNodes counts extents handed to the epoch GC's limbo list.
	RetiredNodes uint64
}

// MutableTable wraps a Table with software update operations.
type MutableTable struct {
	Table
	sys   *System
	mut   mutator
	stats MutStats
}

// mutator is one kind's software update routines over its laid-out
// structure; the kind table's mutable builder creates it.
type mutator interface {
	insert(t *MutableTable, key []byte, value uint64) error
	// delete removes key, reporting whether it was present, and retires
	// the nodes it unlinked.
	delete(t *MutableTable, key []byte) (bool, error)
}

// BuildMutable is Build returning an updatable handle — the entry point
// the serving write path uses. KindBST takes
// WithBSTPayload. Mutable cuckoo tables start with one bucket per key,
// and mutable B+-trees use a smaller fanout than the read-only bulk
// loader so update streams exercise splits and merges. Kinds without
// software mutators (hash table chains, tries) return ErrUnsupportedOp.
func (s *System) BuildMutable(kind StructKind, keys [][]byte, values []uint64, opts ...BuildOption) (*MutableTable, error) {
	k := kind.info()
	if k == nil || k.build == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownKind, kind)
	}
	if k.buildMutable == nil {
		return nil, fmt.Errorf("qei: %w: no mutable builder for %s", ErrUnsupportedOp, kind)
	}
	cfg := newBuildConfig(opts)
	if err := k.check(keys, values, cfg); err != nil {
		return nil, err
	}
	s.ensureGC()
	header, keyLen, mut := k.buildMutable(s, keys, values, cfg)
	return &MutableTable{
		Table: Table{header: header, Kind: kind, KeyLen: int(keyLen)},
		sys:   s,
		mut:   mut,
	}, nil
}

// MutStats reports the table's accumulated mutation activity.
func (t *MutableTable) MutStats() MutStats {
	st := t.stats
	if m, ok := t.mut.(btreeMutator); ok {
		st.Splits = uint64(m.bt.Splits)
		st.Merges = uint64(m.bt.Merges)
	}
	return st
}

// retire hands freed node extents to the epoch GC's limbo list; their
// memory is reused only after every query admitted before this point
// has drained from the QST.
func (t *MutableTable) retire(exts ...mem.Extent) {
	for _, e := range exts {
		if e.Size == 0 {
			continue
		}
		t.sys.gc.Retire(e)
		t.stats.RetiredNodes++
	}
}

// Insert adds or updates a key/value pair in software. The cycle cost of
// the software routine is not modelled (updates are rare in the paper's
// read-intensive target workloads); its memory effects are — new nodes
// come from the epoch-aware allocator and replaced structures are
// retired, not freed.
func (t *MutableTable) Insert(key []byte, value uint64) error {
	if err := t.mut.insert(t, key, value); err != nil {
		return err
	}
	t.stats.Inserts++
	t.sys.gc.Bump()
	return nil
}

// Delete removes a key, reporting whether it existed. Unlinked nodes
// are retired to the epoch GC so an in-flight query that already read a
// pointer to one still walks valid bytes.
func (t *MutableTable) Delete(key []byte) (bool, error) {
	ok, err := t.mut.delete(t, key)
	if err != nil {
		return ok, err
	}
	if ok {
		t.stats.Deletes++
	}
	t.sys.gc.Bump()
	return ok, nil
}

// Query runs an accelerated lookup against the mutable table.
func (t *MutableTable) Query(key []byte) (Result, error) {
	return t.sys.Query(t.Table, key)
}

type cuckooMutator struct{ ck *dstruct.Cuckoo }

// insert inserts with online resizing: a rehash to double the buckets
// fires when the load factor crosses the ceiling, and again if the kick
// loop still reports the table full (bad luck on a dense table). The old
// bucket array is retired, never freed — a query admitted against it
// finishes against it.
func (m cuckooMutator) insert(t *MutableTable, key []byte, value uint64) error {
	if m.ck.LoadFactor() >= maxLoad {
		if err := m.rehash(t); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := m.ck.Insert(t.sys.m.AS, key, value)
		if err == nil {
			return nil
		}
		if !errors.Is(err, dstruct.ErrTableFull) || attempt >= 2 {
			return err
		}
		if err := m.rehash(t); err != nil {
			return err
		}
	}
}

// rehash doubles the cuckoo bucket array. Whether the rehash published
// the new array or rolled back to the old one, the extent it returns is
// the array that is now unreachable from the header — retire it.
func (m cuckooMutator) rehash(t *MutableTable) error {
	unreachable, err := m.ck.Rehash(t.sys.m.AS, t.sys.gc, m.ck.NBuckets*2)
	t.retire(unreachable)
	if err != nil {
		return err
	}
	t.stats.Rehashes++
	return nil
}

// delete clears the entry in place: there is no node to retire.
func (m cuckooMutator) delete(t *MutableTable, key []byte) (bool, error) {
	return m.ck.Delete(t.sys.m.AS, key)
}

type skipListMutator struct {
	sl  *dstruct.SkipList
	rng *rand.Rand
}

func (m skipListMutator) insert(t *MutableTable, key []byte, value uint64) error {
	return m.sl.Insert(t.sys.m.AS, t.sys.gc, m.rng, key, value)
}

func (m skipListMutator) delete(t *MutableTable, key []byte) (bool, error) {
	ok, e, err := m.sl.Delete(t.sys.m.AS, key)
	if ok {
		t.retire(e)
	}
	return ok, err
}

type bstMutator struct{ bs *dstruct.BST }

// insert inserts and, when the tree has degenerated past the scapegoat
// depth bound, rebuilds it balanced, retiring every old node.
func (m bstMutator) insert(t *MutableTable, key []byte, value uint64) error {
	as, gc := t.sys.m.AS, t.sys.gc
	if err := m.bs.Insert(as, gc, key, value); err != nil {
		return err
	}
	if m.bs.NeedsRebuild() {
		freed, err := m.bs.Rebuild(as, gc)
		if err != nil {
			return err
		}
		t.retire(freed...)
		t.stats.Rebuilds++
	}
	return nil
}

func (m bstMutator) delete(t *MutableTable, key []byte) (bool, error) {
	ok, e, err := m.bs.Delete(t.sys.m.AS, key)
	if ok {
		t.retire(e)
	}
	return ok, err
}

// btreeMutator's node splits and merges happen inside dstruct.BTree;
// MutStats reads their counts from it.
type btreeMutator struct{ bt *dstruct.BTree }

func (m btreeMutator) insert(t *MutableTable, key []byte, value uint64) error {
	_, err := m.bt.Insert(t.sys.m.AS, t.sys.gc, key, value)
	return err
}

func (m btreeMutator) delete(t *MutableTable, key []byte) (bool, error) {
	ok, freed, err := m.bt.Delete(t.sys.m.AS, key)
	t.retire(freed...)
	return ok, err
}

type listMutator struct{ ll *dstruct.LinkedList }

func (m listMutator) insert(t *MutableTable, key []byte, value uint64) error {
	return m.ll.InsertFront(t.sys.m.AS, t.sys.gc, key, value)
}

func (m listMutator) delete(t *MutableTable, key []byte) (bool, error) {
	ok, e, err := m.ll.Remove(t.sys.m.AS, key)
	if ok {
		t.retire(e)
	}
	return ok, err
}
