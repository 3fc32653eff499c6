package qei

import (
	"testing"
	"testing/quick"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/scheme"
)

// Equivalence: the timed accelerator and the untimed functional CFA
// interpreter must produce identical architectural results for the same
// queries — timing must never change answers. This is the key
// functional/timing separation invariant of the whole engine.
func TestTimedEngineMatchesFunctionalInterpreter(t *testing.T) {
	f := func(seed int64) bool {
		m := machine.New(hwdesc.Default())
		a := New(m, scheme.ForKind(scheme.CoreIntegrated), cfa.DefaultRegistry(), 0)
		n := 60 + int(uint64(seed)%60)
		keys, vals := genKeys(n, 16, seed)

		headers := []mem.VAddr{
			dstruct.BuildCuckoo(m.AS, uint64(n), 4, 3, keys, vals).HeaderAddr,
			dstruct.BuildHashTable(m.AS, uint64(n/4), 3, keys, vals).HeaderAddr,
			dstruct.BuildSkipList(m.AS, seed, keys, vals).HeaderAddr,
			dstruct.BuildBST(m.AS, seed, 32, keys, vals).HeaderAddr,
			dstruct.BuildBTree(m.AS, 8, keys, vals).HeaderAddr,
		}
		// A second registry for the functional interpreter so TLB/cache
		// state mutations cannot leak between the two paths (they share
		// the address space, which is read-only here).
		reg := cfa.DefaultRegistry()

		tag := uint64(0)
		for _, hdr := range headers {
			for i := 0; i < n; i += 7 {
				ka := stage(m, keys[i])
				want, err := cfa.Run(reg, m.AS, hdr, ka, 0)
				if err != nil {
					return false
				}
				if _, err := a.IssueBlocking(&isa.QueryDesc{
					HeaderAddr: hdr, KeyAddr: ka, Tag: tag,
				}, uint64(tag)*17); err != nil {
					return false
				}
				got, ok := a.Result(tag)
				tag++
				if !ok || got.Fault != nil {
					return false
				}
				if got.Found != want.Found || got.Value != want.Value {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical accelerated runs over a fresh machine must
// produce bit-identical timing and results.
func TestEngineDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := machine.New(hwdesc.Default())
		a := New(m, scheme.ForKind(scheme.CHATLB), cfa.DefaultRegistry(), 0)
		keys, vals := genKeys(150, 32, 99)
		sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
		var lastDone, checksum uint64
		for i := 0; i < 100; i++ {
			done, err := a.IssueBlocking(&isa.QueryDesc{
				HeaderAddr: sl.HeaderAddr,
				KeyAddr:    stage(m, keys[i]),
				Tag:        uint64(i),
			}, uint64(i)*3)
			if err != nil {
				t.Fatal(err)
			}
			r, _ := a.Result(uint64(i))
			lastDone = done
			checksum = checksum*31 + r.Value + done
		}
		return lastDone, checksum
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("runs differ: (%d,%d) vs (%d,%d)", d1, c1, d2, c2)
	}
}
