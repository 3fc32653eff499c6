package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"qei"
)

// TestStreamingGolden pins the served write path: the qei.RunServing
// JSON report of each streaming row (software inserts and deletes
// beside in-flight accelerated reads, epoch reclamation, the kinds'
// rehash, rebuild, split and merge maintenance) is compared with
// testdata/streaming_<kind>.json. Where each node lands and when the
// epoch GC reuses retired memory decide the served cycles the report
// carries, so a change to a mutator's allocation or retirement order
// shows here. If it fails after an
// intentional model change, regenerate the files with:
//
//	QEI_UPDATE_GOLDEN=1 go test -run '^TestStreamingGolden$' ./internal/exp
func TestStreamingGolden(t *testing.T) {
	for _, kind := range []qei.StructKind{qei.KindCuckoo, qei.KindSkipList, qei.KindBST, qei.KindBTree, qei.KindLinkedList} {
		t.Run(kind.String(), func(t *testing.T) {
			rep, err := qei.RunServing(streamingConfig(Small, kind))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "streaming_"+kind.String()+".json")
			if os.Getenv("QEI_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s report diverges from %s:\n got: %s\nwant: %s", kind, path, got, want)
			}
		})
	}
}
