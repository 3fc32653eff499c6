package qei

import (
	"encoding/binary"
	"errors"
	"testing"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/faultinject"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/scheme"
)

// Robustness tests for the Sec. IV-D recovery layer: watchdog, pointer-
// cycle guard, firmware panic barrier, and retry-from-root.

func TestWatchdogCycleBudget(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(400, 16, 41)
	ll := dstruct.BuildLinkedList(m.AS, keys, vals)

	// A miss on a 400-node list walks every node — hundreds of dependent
	// memory accesses, far beyond a 2000-cycle budget (a hit at the head
	// costs ~400 cold cycles and fits).
	a.SetCycleBudget(2000)
	absent := stage(m, []byte("absent-key-16byt"))
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: ll.HeaderAddr, KeyAddr: absent, Tag: 1}, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(1)
	if !errors.Is(r.Fault, ErrQueryTimeout) {
		t.Fatalf("fault = %v, want ErrQueryTimeout", r.Fault)
	}
	if s := a.Stats(); s.Timeouts != 1 || s.Exceptions != 1 {
		t.Fatalf("timeouts/exceptions = %d/%d, want 1/1", s.Timeouts, s.Exceptions)
	}

	// A front-of-list hit completes within the same budget: the watchdog
	// only kills walks that actually burn it.
	hit := stage(m, keys[0])
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: ll.HeaderAddr, KeyAddr: hit, Tag: 2}, 0); err != nil {
		t.Fatal(err)
	}
	if r, _ := a.Result(2); r.Fault != nil || !r.Found || r.Value != vals[0] {
		t.Fatalf("budgeted hit broke: %+v", r)
	}
}

func TestPointerCycleDetected(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(8, 16, 42)
	ll := dstruct.BuildLinkedList(m.AS, keys, vals)

	// Corrupt the list: make the third node's next pointer loop back to
	// the head. A miss query then walks the cycle forever.
	node := ll.Head
	for i := 0; i < 2; i++ {
		next, err := m.AS.ReadU64(node)
		if err != nil {
			t.Fatal(err)
		}
		node = mem.VAddr(next)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ll.Head))
	m.AS.MustWrite(node, buf[:])

	absent := stage(m, []byte("absent-key-16byt"))
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: ll.HeaderAddr, KeyAddr: absent, Tag: 1}, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(1)
	if !errors.Is(r.Fault, ErrStructCorrupt) {
		t.Fatalf("fault = %v, want ErrStructCorrupt (pointer cycle)", r.Fault)
	}
	// Brent's detector must fire well before the transition backstop: a
	// 3-node cycle repeats its configuration within a few dozen steps.
	if s := a.Stats(); s.Transitions > 1000 {
		t.Fatalf("cycle took %d transitions to detect", s.Transitions)
	}
}

// panicFW is firmware whose handler panics — the firmware-bug shape the
// engine's panic barrier must convert into an architectural fault.
type panicFW struct{}

func (panicFW) TypeCode() uint8 { return 60 }
func (panicFW) Name() string    { return "panic-fw" }
func (panicFW) NumStates() int  { return 1 }
func (panicFW) Step(q *cfa.Query, s cfa.StateID) cfa.Request {
	panic("firmware bug: unchecked index")
}

func TestFirmwarePanicBecomesArchitecturalFault(t *testing.T) {
	m := machine.New(hwdesc.Default())
	reg := cfa.NewRegistry()
	if err := reg.Register(panicFW{}); err != nil {
		t.Fatal(err)
	}
	a := New(m, scheme.ForKind(scheme.CoreIntegrated), reg, 3)

	hdr := dstruct.WriteHeader(m.AS, dstruct.Header{Type: 60, KeyLen: 8, Size: 1})
	key := stage(m, make([]byte, 8))
	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: hdr, KeyAddr: key, Tag: 1}, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(1)
	if !errors.Is(r.Fault, cfa.ErrInvalidProgram) {
		t.Fatalf("fault = %v, want wrapped ErrInvalidProgram", r.Fault)
	}
	if a.Stats().Exceptions != 1 {
		t.Fatalf("exceptions = %d", a.Stats().Exceptions)
	}
}

// rogueFW is custom firmware with a configurable step, for the walk
// guards both engines must turn into faults.
type rogueFW struct {
	step func(q *cfa.Query, s cfa.StateID) cfa.Request
}

func (rogueFW) TypeCode() uint8 { return 61 }
func (rogueFW) Name() string    { return "rogue-fw" }
func (rogueFW) NumStates() int  { return 2 }
func (f rogueFW) Step(q *cfa.Query, s cfa.StateID) cfa.Request {
	return f.step(q, s)
}

func TestWalkGuardsFaultBothEngines(t *testing.T) {
	cases := []struct {
		name string
		step func(q *cfa.Query, s cfa.StateID) cfa.Request
		want error
	}{
		{"panic", func(q *cfa.Query, s cfa.StateID) cfa.Request {
			panic("firmware bug")
		}, cfa.ErrInvalidProgram},
		{"oversize-op", func(q *cfa.Query, s cfa.StateID) cfa.Request {
			return q.Finish(false, 0, cfa.ALU(8), cfa.MemRead(q.Header.Root, 1<<30))
		}, cfa.ErrInvalidProgram},
		// A walk that never repeats its configuration escapes cycle
		// detection; the transition bound stops it.
		{"runaway", func(q *cfa.Query, s cfa.StateID) cfa.Request {
			q.Level++
			return q.Continue(1, false)
		}, ErrQueryTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(hwdesc.Default())
			reg := cfa.NewRegistry()
			if err := reg.Register(rogueFW{tc.step}); err != nil {
				t.Fatal(err)
			}
			a := New(m, scheme.ForKind(scheme.CoreIntegrated), reg, 3)
			hdr := dstruct.WriteHeader(m.AS, dstruct.Header{Type: 61, KeyLen: 8, Size: 1})
			key := stage(m, make([]byte, 8))
			if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: hdr, KeyAddr: key, Tag: 1}, 0); err != nil {
				t.Fatal(err)
			}
			if r, _ := a.Result(1); !errors.Is(r.Fault, tc.want) {
				t.Fatalf("fault = %v, want %v", r.Fault, tc.want)
			}
			// The level-wise engine hands the query back to the per-query
			// path instead of resolving it.
			qd := &isa.QueryDesc{HeaderAddr: hdr, KeyAddr: key, ResultAddr: m.AS.AllocLines(16), Tag: 2}
			_, deferred, err := a.ExecuteBatch([]*isa.QueryDesc{qd}, 0)
			if err != nil || len(deferred) != 1 {
				t.Fatalf("batch: deferred = %v, err = %v; want the query deferred", deferred, err)
			}
		})
	}
}

func TestSpuriousFaultRetryExhaustion(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(10, 16, 43)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 3, keys, vals)

	sched, err := faultinject.ParseSchedule("11:spurious=1")
	if err != nil {
		t.Fatal(err)
	}
	a.SetFaultInjector(faultinject.New(sched))

	if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[0]), Tag: 1}, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(1)
	if r.Fault == nil {
		t.Fatal("rate-1.0 spurious schedule produced no fault")
	}
	s := a.Stats()
	if s.Retries != retryLimit {
		t.Fatalf("retries = %d, want the full retry budget %d", s.Retries, retryLimit)
	}
	if s.Exceptions != 1 {
		t.Fatalf("exceptions = %d, want 1 (only the final attempt surfaces)", s.Exceptions)
	}
}

func TestTransientFaultRetryRecovers(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(100, 16, 44)
	ll := dstruct.BuildLinkedList(m.AS, keys, vals)

	sched, err := faultinject.ParseSchedule("5:spurious=0.002")
	if err != nil {
		t.Fatal(err)
	}
	a.SetFaultInjector(faultinject.New(sched))

	succeeded, faulted := 0, 0
	for i, k := range keys {
		if _, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: ll.HeaderAddr, KeyAddr: stage(m, k), Tag: uint64(i)}, 0); err != nil {
			t.Fatal(err)
		}
		r, _ := a.Result(uint64(i))
		if r.Fault != nil {
			faulted++
			continue
		}
		succeeded++
		if !r.Found || r.Value != vals[i] {
			t.Fatalf("query %d returned wrong result after faults: %+v", i, r)
		}
	}
	s := a.Stats()
	if s.Retries == 0 {
		t.Fatal("low-rate spurious schedule never triggered a retry")
	}
	if succeeded == 0 {
		t.Fatal("no query recovered via retry")
	}
	if uint64(faulted) != s.Exceptions {
		t.Fatalf("faulted queries %d != exceptions %d", faulted, s.Exceptions)
	}
}
