package exp

import "testing"

// TestAblationShapes asserts the design claim behind each ablation on
// its small-scale table.
func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	cases := []struct {
		name  string
		run   func(Scale, int) (TableData, error)
		check func(t *testing.T, td TableData)
	}{
		{"qst", ablationQSTSize, func(t *testing.T, td TableData) {
			// More QST entries never cost cycles, and the paper's 10
			// entries run 50-90% occupied (Sec. VI-A).
			for i := 1; i < len(td.Rows); i++ {
				if prev, cur := cell(t, td.Rows[i-1], 1), cell(t, td.Rows[i], 1); cur > prev {
					t.Errorf("%s entries: %.0f ROI cycles, more than %.0f at %s", td.Rows[i][0], cur, prev, td.Rows[i-1][0])
				}
			}
			if occ := find(t, td, 2, "10"); occ < 5 || occ > 9 {
				t.Errorf("occupancy at 10 entries = %.2f, want 5-9", occ)
			}
		}},
		{"remote", ablationRemoteCompare, func(t *testing.T, td TableData) {
			// CHA comparators compare remotely and fetch fewer lines.
			// Which row is faster is not asserted: see EXPERIMENTS.md.
			if n := find(t, td, 2, "remote (CHA)"); n == 0 {
				t.Error("no remote compares with CHA comparators")
			}
			if n := find(t, td, 2, "local (fetch)"); n != 0 {
				t.Errorf("%.0f remote compares without CHA comparators", n)
			}
			if remote, local := find(t, td, 3, "remote (CHA)"), find(t, td, 3, "local (fetch)"); remote >= local {
				t.Errorf("mem lines: remote %.0f, local %.0f; want remote lower", remote, local)
			}
		}},
		{"translation", ablationTranslation, func(t *testing.T, td TableData) {
			if tlb, mmu := find(t, td, 1, "dedicated TLB"), find(t, td, 1, "core MMU round-trip"); tlb >= mmu {
				t.Errorf("dedicated TLB %.0f cycles, core MMU round trip %.0f; want the TLB faster", tlb, mmu)
			}
		}},
		{"batch", ablationBatch, func(t *testing.T, td TableData) {
			if b1, b10 := find(t, td, 1, "1"), find(t, td, 1, "10"); b1 <= b10 {
				t.Errorf("batch 1 %.0f cycles, batch 10 %.0f; want batching to save cycles", b1, b10)
			}
		}},
		{"skew", ablationSkew, func(t *testing.T, td TableData) {
			// Hot keys stay in the software walker's private caches.
			if zipf, uni := find(t, td, 1, "DPDK-zipf"), find(t, td, 1, "DPDK"); zipf >= uni {
				t.Errorf("software cycles per query: zipf %.1f, uniform %.1f; want zipf lower", zipf, uni)
			}
		}},
		{"index", ablationIndex, func(t *testing.T, td TableData) {
			if bt, sl := find(t, td, 1, "btree"), find(t, td, 1, "skiplist"); bt >= sl {
				t.Errorf("accel cycles per query: btree %.0f, skiplist %.0f; want btree lower", bt, sl)
			}
		}},
		{"hugepage", ablationHugePage, func(t *testing.T, td TableData) {
			frag, huge := td.Rows[0], td.Rows[1]
			if frag[1] != "false" || huge[1] != "true" {
				t.Errorf("contiguous: fragmented %s, huge-page %s; want false, true", frag[1], huge[1])
			}
			if frag[2] != huge[2] {
				t.Errorf("pages mapped: fragmented %s, huge-page %s; want equal", frag[2], huge[2])
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			td, err := c.run(Small, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, td)
		})
	}
}
