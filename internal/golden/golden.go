// Package golden is the one update/compare protocol behind the
// repository's committed test outputs: a test renders what it produced
// and Check compares it with the file it is pinned to. After an
// intended change, regenerate every golden with
//
//	QEI_UPDATE_GOLDEN=1 go test ./...
//
// or one test's files with the same variable and -run. QEI_UPDATE_GOLDEN
// is the repository's only golden switch.
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxDiffLines bounds each side of the hunk Check prints.
const maxDiffLines = 40

// Updating reports whether this run rewrites the goldens instead of
// checking them (QEI_UPDATE_GOLDEN set to any non-empty value).
func Updating() bool { return os.Getenv("QEI_UPDATE_GOLDEN") != "" }

// Check compares got with the file at path. When Updating, it writes
// got to path instead, creating the directory if needed. A mismatch
// fails the test with the differing lines, so the failure is the list
// of moved cells.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if Updating() {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (regenerate with QEI_UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with QEI_UPDATE_GOLDEN=1 after an intended change):\n%s",
			path, diff(string(want), got))
	}
}

// diff renders the one hunk between the first and the last differing
// line of want and got: the lines only in want (-) and only in got (+).
func diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	pre := 0
	for pre < len(w) && pre < len(g) && w[pre] == g[pre] {
		pre++
	}
	suf := 0
	for suf < len(w)-pre && suf < len(g)-pre && w[len(w)-1-suf] == g[len(g)-1-suf] {
		suf++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@@ line %d @@\n", pre+1)
	for _, side := range []struct {
		mark  string
		lines []string
	}{{"- ", w[pre : len(w)-suf]}, {"+ ", g[pre : len(g)-suf]}} {
		for i, l := range side.lines {
			if i == maxDiffLines {
				fmt.Fprintf(&b, "%s... %d more lines\n", side.mark, len(side.lines)-i)
				break
			}
			b.WriteString(side.mark + l + "\n")
		}
	}
	return b.String()
}
