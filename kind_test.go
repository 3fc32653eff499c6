package qei

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestStructKindRoundTrip drives every built-in kind through every code
// path that reads the kind table: names, the immutable and mutable
// builders, the software walker against the accelerator, and the batch
// plan.
func TestStructKindRoundTrip(t *testing.T) {
	want := map[StructKind]struct {
		alias    string
		mutable  bool
		grouping string // level-wise grouping at 64 keys; "" = windowed
	}{
		KindLinkedList: {"list", true, "chunked scan"},
		KindHashTable:  {"hash", false, "bucket phases"},
		KindCuckoo:     {"", true, "bucket phases"},
		KindSkipList:   {"", true, "levels"},
		KindBST:        {"", true, "levels"},
		KindTrie:       {"", false, ""},
		KindBTree:      {"", true, "levels"},
	}
	keys, vals := testKeys(48, 16, 16)
	absent, _ := testKeys(4, 16, 17)
	for _, k := range StructKinds() {
		w, ok := want[k]
		if !ok {
			t.Fatalf("built-in kind %s has no expectations", k)
		}
		for _, name := range []string{k.String(), strings.ToUpper(k.String()), w.alias} {
			if name == "" {
				continue
			}
			if got, err := ParseStructKind(name); err != nil || got != k {
				t.Fatalf("ParseStructKind(%q) = %v, %v; want %s", name, got, err, k)
			}
		}
		if k.TypeCode() == 0 {
			t.Fatalf("built-in kind %s has no type code", k)
		}

		sys := NewSystem(CoreIntegrated)
		bk, bv := keys, vals
		probes := append(slices.Clone(keys[:4]), absent...)
		if k == KindTrie {
			bk, bv = [][]byte{[]byte("alpha"), []byte("beta")}, []uint64{10, 20}
			probes = [][]byte{[]byte("xx alpha yy beta"), []byte("nothing here")}
		}
		tb, err := sys.Build(k, bk, bv)
		if err != nil {
			t.Fatalf("Build(%s): %v", k, err)
		}
		if tb.Kind != k || tb.Name() != k.String() {
			t.Fatalf("Build(%s) made a %s table (%s)", k, tb.Kind, tb.Name())
		}
		var found int
		for _, p := range probes {
			hw, err := sys.Query(tb, p)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sys.QuerySoftware(tb, p)
			if err != nil {
				t.Fatal(err)
			}
			// Both paths return the same architectural result; only the
			// latency differs.
			if hw.Found != sw.Found || hw.Value != sw.Value || !slices.Equal(hw.Matches, sw.Matches) ||
				hw.Err != sw.Err {
				t.Fatalf("%s probe %q: accelerator %+v, software %+v", k, p, hw, sw)
			}
			if hw.Found {
				found++
			}
		}
		if found == 0 || found == len(probes) {
			t.Fatalf("%s: %d of %d probes found; want both hits and misses", k, found, len(probes))
		}

		mt, err := sys.BuildMutable(k, bk, bv)
		switch {
		case w.mutable && err != nil:
			t.Fatalf("BuildMutable(%s): %v", k, err)
		case w.mutable:
			if res, err := mt.Query(bk[0]); err != nil || !res.Found {
				t.Fatalf("%s: mutable table not queryable: %+v %v", k, res, err)
			}
		case !errors.Is(err, ErrUnsupportedOp):
			t.Fatalf("BuildMutable(%s) = %v, want ErrUnsupportedOp", k, err)
		}

		wantMode, wantGrouping := BatchLevelWise, w.grouping
		if w.grouping == "" {
			wantMode, wantGrouping = BatchWindowed, "windowed"
		}
		if p := PlanBatch(k, 64); p.Mode != wantMode || p.Grouping != wantGrouping {
			t.Fatalf("PlanBatch(%s, 64) = %+v, want %s/%s", k, p, wantMode, wantGrouping)
		}
		if p := PlanBatch(k, 2); p.Mode != BatchWindowed || p.Grouping != "windowed" {
			t.Fatalf("PlanBatch(%s, 2) = %+v, want windowed", k, p)
		}
	}

	if _, err := ParseStructKind("quadtree"); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind name: %v, want ErrUnknownKind", err)
	}
	if k, err := ParseStructKind(" Skip-List "); err != nil || k != KindSkipList {
		t.Fatalf("case/separator-insensitive parse failed: %v, %v", k, err)
	}
	sys := NewSystem(CoreIntegrated)
	if _, err := sys.Build(KindCustom, keys, vals); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("Build(KindCustom) = %v, want ErrUnknownKind", err)
	}
	_, err := sys.BuildMutable(KindCustom, keys, vals)
	if !errors.Is(err, ErrUnknownKind) || !strings.Contains(err.Error(), "custom") {
		t.Fatalf("BuildMutable(KindCustom) = %v, want ErrUnknownKind naming the kind", err)
	}
}
