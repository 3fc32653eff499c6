package qei

import (
	"fmt"

	"qei/internal/dstruct"
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
// the mutation state. The structures own their update routines
// (dstruct.Updatable): each allocates through the epoch GC, retires
// what it unlinks, and runs and counts its own maintenance.

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
	sys              *System
	mut              dstruct.Updatable
	inserts, deletes uint64
}

// BuildMutable is Build returning an updatable handle — the entry point
// the serving write path uses. Mutable cuckoo tables start with one
// bucket per key and rehash online past a 0.85 load factor, and mutable
// B+-trees use a smaller fanout than the read-only bulk loader so update
// streams exercise splits and merges. Kinds without software update
// routines (hash table chains, tries) return ErrUnsupportedOp.
func (s *System) BuildMutable(kind StructKind, keys [][]byte, values []uint64) (*MutableTable, error) {
	k := kind.info()
	if k == nil || k.build == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownKind, kind)
	}
	if !k.updatable {
		return nil, fmt.Errorf("qei: %w: no mutable builder for %s", ErrUnsupportedOp, kind)
	}
	if err := k.check(keys, values); err != nil {
		return nil, err
	}
	s.ensureGC()
	header, keyLen, mut := k.build(s, keys, values, true)
	return &MutableTable{
		Table: Table{header: header, Kind: kind, KeyLen: int(keyLen)},
		sys:   s,
		mut:   mut,
	}, nil
}

// MutStats reports the table's accumulated mutation activity.
func (t *MutableTable) MutStats() MutStats {
	c := t.mut.Counts()
	return MutStats{
		Inserts: t.inserts, Deletes: t.deletes,
		Rehashes: c.Rehashes, Rebuilds: c.Rebuilds,
		Splits: c.Splits, Merges: c.Merges,
		RetiredNodes: c.Retired,
	}
}

// Insert adds or updates a key/value pair in software. The cycle cost of
// the software routine is not modelled (updates are rare in the paper's
// read-intensive target workloads); its memory effects are — new nodes
// come from the epoch-aware allocator and replaced structures are
// retired, not freed.
func (t *MutableTable) Insert(key []byte, value uint64) error {
	if err := t.mut.Insert(t.sys.m.AS, t.sys.gc, key, value); err != nil {
		return err
	}
	t.inserts++
	t.sys.gc.Bump()
	return nil
}

// Delete removes a key, reporting whether it existed. Unlinked nodes
// are retired to the epoch GC so an in-flight query that already read a
// pointer to one still walks valid bytes.
func (t *MutableTable) Delete(key []byte) (bool, error) {
	ok, err := t.mut.Delete(t.sys.m.AS, t.sys.gc, key)
	if err != nil {
		return ok, err
	}
	if ok {
		t.deletes++
	}
	t.sys.gc.Bump()
	return ok, nil
}

// Query runs an accelerated lookup against the mutable table.
func (t *MutableTable) Query(key []byte) (Result, error) {
	return t.sys.Query(t.Table, key)
}
