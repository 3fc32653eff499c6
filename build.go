package qei

import "fmt"

// Build lays out a read-only table of any built-in structure kind in
// the simulated machine's memory: a DPDK-style two-choice cuckoo hash, a
// chained hash table, a sorted skip list (RocksDB-memtable style), a
// binary search tree, a singly linked list, a bulk-loaded B+-tree
// (fanout 16), or an Aho-Corasick trie.
//
// keys must share one length; values[i] is reported when keys[i]
// matches. For KindTrie the keys are the dictionary's keywords
// (variable length, values non-zero) and the table answers Scan
// queries. KindCustom has no generic builder (register firmware and
// lay the structure out explicitly); it and undefined kinds return
// ErrUnknownKind.
func (s *System) Build(kind StructKind, keys [][]byte, values []uint64) (Table, error) {
	k := kind.info()
	if k == nil || k.build == nil {
		return Table{}, fmt.Errorf("%w %s", ErrUnknownKind, kind)
	}
	if err := k.check(keys, values); err != nil {
		return Table{}, err
	}
	header, keyLen, _ := k.build(s, keys, values, false)
	return Table{header: header, Kind: kind, KeyLen: int(keyLen)}, nil
}

// checkKV checks fixed-length key/value builder inputs.
func checkKV(keys [][]byte, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("qei: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return fmt.Errorf("qei: empty key set")
	}
	l := len(keys[0])
	for i, k := range keys {
		if len(k) != l {
			return fmt.Errorf("qei: key %d has length %d, want %d", i, len(k), l)
		}
	}
	return nil
}

// checkDict checks a trie dictionary: keywords of any length, values
// non-zero (zero is the no-match report).
func checkDict(keywords [][]byte, values []uint64) error {
	if len(keywords) != len(values) {
		return fmt.Errorf("qei: %d keywords but %d values", len(keywords), len(values))
	}
	if len(keywords) == 0 {
		return fmt.Errorf("qei: empty dictionary")
	}
	for i, v := range values {
		if v == 0 {
			return fmt.Errorf("qei: value %d is zero (reserved for no-match)", i)
		}
	}
	return nil
}
