package golden

import "testing"

// TestDiffShowsOnlyTheMovedLines: one moved cell prints as one - and one
// + line, located by its line number.
func TestDiffShowsOnlyTheMovedLines(t *testing.T) {
	got := diff("title\nDPDK 45.4\nJVM 49.4\n", "title\nDPDK 45.5\nJVM 49.4\n")
	if want := "@@ line 2 @@\n- DPDK 45.4\n+ DPDK 45.5\n"; got != want {
		t.Errorf("diff = %q, want %q", got, want)
	}
}
