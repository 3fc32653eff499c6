package qei

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// arrayFW is a minimal custom firmware: a fixed-size array of
// [key (8 B) | value (8 B)] entries scanned linearly — the simplest
// possible CFA added through the public extension API.
type arrayFW struct{}

const arrayType uint8 = 50

func (arrayFW) TypeCode() uint8 { return arrayType }
func (arrayFW) Name() string    { return "array50" }
func (arrayFW) NumStates() int  { return 2 }

func (arrayFW) Step(q *FirmwareQuery, state FirmwareState) FirmwareRequest {
	const scan FirmwareState = 1
	switch state {
	case FirmwareStart:
		q.Pos = 0
		return FirmwareContinue(q, scan, true,
			FirmwareMemRead(uint64(q.KeyAddr), 8),
			FirmwareMemRead(uint64(q.Header.Root), 16))
	case scan:
		if uint64(q.Pos) >= q.Header.Size {
			return FirmwareFinish(q, false, 0)
		}
		ea := q.Header.Root + Addr(q.Pos*16)
		stored, err := q.AS.ReadU64(ea)
		if err != nil {
			return FirmwareFail(err)
		}
		want := binary.LittleEndian.Uint64(q.Key[:8])
		cmp := FirmwareCompare(uint64(ea), 8)
		if stored == want {
			v, err := q.AS.ReadU64(ea + 8)
			if err != nil {
				return FirmwareFail(err)
			}
			return FirmwareFinish(q, true, v, cmp)
		}
		q.Pos++
		return FirmwareContinue(q, scan, false, cmp, FirmwareMemRead(uint64(ea+16), 16))
	default:
		return FirmwareFail(fmt.Errorf("array50: bad state %d", state))
	}
}

func TestPublicFirmwareExtension(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	if err := sys.RegisterFirmware(arrayFW{}); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration must be rejected.
	if err := sys.RegisterFirmware(arrayFW{}); err == nil {
		t.Fatal("duplicate firmware accepted")
	}

	// Lay out 32 entries by hand through the public Write API.
	n := 32
	body := make([]byte, n*16)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(body[i*16:], uint64(0xA000+i))
		binary.LittleEndian.PutUint64(body[i*16+8:], uint64(7000+i))
	}
	root := sys.Write(body)
	table, err := sys.WriteTableHeader("array50", arrayType, root, 8, uint64(n), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		var key [8]byte
		binary.LittleEndian.PutUint64(key[:], uint64(0xA000+i))
		res, err := sys.Query(table, key[:])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != uint64(7000+i) {
			t.Fatalf("entry %d: %+v", i, res)
		}
	}
	// QueryBatch hands custom firmware to the level-wise engine too; the
	// last key is absent.
	batch := make([][]byte, n+1)
	for i := range batch {
		batch[i] = binary.LittleEndian.AppendUint64(nil, uint64(0xA000+i))
	}
	rs, err := sys.QueryBatch(table, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil || r.Found != (i < n) || (i < n && r.Value != uint64(7000+i)) {
			t.Fatalf("batch entry %d: %+v", i, r)
		}
	}

	var miss [8]byte
	binary.LittleEndian.PutUint64(miss[:], 0xFFFF)
	res, err := sys.Query(table, miss[:])
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent key found")
	}
	// Later entries must cost more cycles (linear scan through the CFA).
	var k0, kLast [8]byte
	binary.LittleEndian.PutUint64(k0[:], 0xA000)
	binary.LittleEndian.PutUint64(kLast[:], uint64(0xA000+n-1))
	r0, _ := sys.Query(table, k0[:])
	rL, _ := sys.Query(table, kLast[:])
	if rL.Latency <= r0.Latency {
		t.Fatalf("last entry (%d cyc) should cost more than first (%d cyc)", rL.Latency, r0.Latency)
	}
}

// TestCustomFirmwareHasNoSoftwareWalker checks that a table whose header
// carries a registered non-built-in type code has no software walker:
// QuerySoftware returns ErrUnknownKind, and the "baseline" serving
// backend passes that error through without counting an exception.
func TestCustomFirmwareHasNoSoftwareWalker(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	if err := sys.RegisterFirmware(arrayFW{}); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	binary.LittleEndian.PutUint64(body, 0xA000)
	binary.LittleEndian.PutUint64(body[8:], 7000)
	table, err := sys.WriteTableHeader("array50", arrayType, sys.Write(body), 8, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := body[:8]
	if _, err := sys.QuerySoftware(table, key); !errors.Is(err, ErrUnknownKind) ||
		!strings.Contains(err.Error(), "array50 has no software walker") {
		t.Fatalf("QuerySoftware on a custom table: err = %v, want ErrUnknownKind", err)
	}
	be, err := NewServingBackend("baseline", sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Query(table, key); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("baseline backend on a custom table: err = %v, want ErrUnknownKind", err)
	}
	if st := be.Stats(); st.Queries != 0 || st.Exceptions != 0 {
		t.Fatalf("baseline backend counted %+v for a table it cannot walk", st)
	}
}

func TestWriteTableHeaderValidation(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	if _, err := sys.WriteTableHeader("x", 0, 0x1000, 8, 1, 0, 0); err == nil {
		t.Fatal("reserved type code accepted")
	}
	if _, err := sys.WriteTableHeader("x", 60, 0x1000, 0, 1, 0, 0); err == nil {
		t.Fatal("zero key length accepted")
	}
}

func TestValidateFirmwarePublic(t *testing.T) {
	if err := ValidateFirmware(arrayFW{}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeThroughPublicAPI(t *testing.T) {
	// The built-in B+-tree via the full public path.
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(1000, 16, 50)
	tb, err := sys.Build(KindBTree, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		res, err := sys.Query(tb, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v", i, res)
		}
	}
}
