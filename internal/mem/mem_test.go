package mem

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"qei/internal/trace"
)

func TestPhysicalReadWriteRoundTrip(t *testing.T) {
	p := NewPhysical()
	data := []byte("the quick brown fox jumps over the lazy dog")
	// Straddle a frame boundary deliberately.
	addr := PAddr(PageSize - 10)
	p.Write(addr, data)
	got := make([]byte, len(data))
	p.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %q want %q", got, data)
	}
}

func TestPhysicalZeroFill(t *testing.T) {
	p := NewPhysical()
	b := []byte{0xff}
	p.Read(PAddr(12345), b)
	if b[0] != 0 {
		t.Fatalf("fresh memory reads %d, want 0", b[0])
	}
}

func TestAllocMapsPages(t *testing.T) {
	p := NewPhysical()
	as := NewAddressSpace(p)
	a := as.Alloc(3*PageSize+100, 64)
	if a == 0 {
		t.Fatal("Alloc returned NULL")
	}
	if uint64(a)%64 != 0 {
		t.Fatalf("Alloc returned unaligned address %#x", uint64(a))
	}
	// Every page of the range must translate.
	for off := uint64(0); off < 3*PageSize+100; off += PageSize {
		if _, err := as.Translate(a + VAddr(off)); err != nil {
			t.Fatalf("Translate(%#x): %v", uint64(a)+off, err)
		}
	}
}

func TestUnmappedPageFaults(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	_, err := as.Translate(VAddr(0xdead0000))
	var pf *PageFaultError
	if err == nil {
		t.Fatal("expected page fault")
	}
	if !asPageFault(err, &pf) {
		t.Fatalf("error %v is not a PageFaultError", err)
	}
	if pf.Addr != VAddr(0xdead0000) {
		t.Fatalf("fault address %#x, want 0xdead0000", uint64(pf.Addr))
	}
}

func asPageFault(err error, out **PageFaultError) bool {
	pf, ok := err.(*PageFaultError)
	if ok {
		*out = pf
	}
	return ok
}

func TestVirtualReadWriteAcrossPages(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	a := as.Alloc(4*PageSize, PageSize)
	data := make([]byte, 2*PageSize+37)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := a + VAddr(PageSize-19)
	if err := as.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestFragmentedByDefault(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	a := as.Alloc(64*PageSize, PageSize)
	if as.Contiguous(a, 64*PageSize) {
		t.Fatal("default allocation should be physically fragmented")
	}
}

func TestContiguousOption(t *testing.T) {
	as := NewAddressSpace(NewPhysical(), WithContiguousFrames())
	a := as.Alloc(64*PageSize, PageSize)
	if !as.Contiguous(a, 64*PageSize) {
		t.Fatal("WithContiguousFrames allocation should be physically contiguous")
	}
}

func TestScalarAccessors(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	a := as.Alloc(64, 8)
	if err := as.Write(a, []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(a)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	if err := as.Write(a+12, []byte{0xef, 0xbe}); err != nil {
		t.Fatal(err)
	}
	v16, err := as.ReadU16(a + 12)
	if err != nil || v16 != 0xbeef {
		t.Fatalf("ReadU16 = %#x, %v", v16, err)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	a := as.Alloc(100, 1)
	b := as.Alloc(100, 1)
	if uint64(b) < uint64(a)+100 {
		t.Fatalf("allocations overlap: a=%#x b=%#x", uint64(a), uint64(b))
	}
	as.MustWrite(a, bytes.Repeat([]byte{0xaa}, 100))
	as.MustWrite(b, bytes.Repeat([]byte{0xbb}, 100))
	got := make([]byte, 100)
	as.MustRead(a, got)
	for _, c := range got {
		if c != 0xaa {
			t.Fatal("write to b clobbered a")
		}
	}
}

func TestLinesTouched(t *testing.T) {
	cases := []struct {
		addr VAddr
		size uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{64, 64, 1},
		{10, 128, 3},
	}
	for _, c := range cases {
		if got := LinesTouched(c.addr, c.size); got != c.want {
			t.Errorf("LinesTouched(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

func TestLineAndPageHelpers(t *testing.T) {
	a := VAddr(0x12345)
	if a.Line() != VAddr(0x12340) {
		t.Fatalf("Line() = %#x", uint64(a.Line()))
	}
	if a.Page() != 0x12 {
		t.Fatalf("Page() = %#x", a.Page())
	}
	if a.Offset() != 0x345 {
		t.Fatalf("Offset() = %#x", a.Offset())
	}
	p := PAddr(0x54321)
	if p.Line() != PAddr(0x54300) {
		t.Fatalf("PAddr.Line() = %#x", uint64(p.Line()))
	}
	if p.Frame() != 0x54 {
		t.Fatalf("PAddr.Frame() = %#x", p.Frame())
	}
}

// Property: any written payload at any in-range offset reads back intact.
func TestPropertyRoundTrip(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	region := as.Alloc(1<<20, PageSize) // 1 MiB playground
	f := func(off uint32, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		start := region + VAddr(uint64(off)%(1<<20-uint64(len(payload))%(1<<20)))
		if uint64(start)+uint64(len(payload)) > uint64(region)+1<<20 {
			return true // skip out-of-range combos
		}
		if err := as.Write(start, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := as.Read(start, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: translation is a bijection per page — two distinct mapped
// virtual pages never share a physical frame.
func TestPropertyNoFrameAliasing(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	seen := map[uint64]uint64{}
	for i := 0; i < 200; i++ {
		a := as.Alloc(PageSize, PageSize)
		pa, err := as.Translate(a)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[pa.Frame()]; dup {
			t.Fatalf("frame %d backs both vpage %d and vpage %d", pa.Frame(), prev, a.Page())
		}
		seen[pa.Frame()] = a.Page()
	}
}

// recordingWatcher collects every observed read range.
type recordingWatcher struct {
	ranges []Extent
}

func (w *recordingWatcher) ObserveRead(a VAddr, n uint64) {
	w.ranges = append(w.ranges, Extent{Addr: a, Size: n})
}

// TestReadWatchObservesBothPaths checks the read-watch hook reports the
// exact dereferenced range on the single-page fast path and on the
// multi-page slow path, and that clearing it silences the hook.
func TestReadWatchObservesBothPaths(t *testing.T) {
	as := NewAddressSpace(NewPhysical())
	w := &recordingWatcher{}
	as.SetReadWatch(w)

	small := as.Alloc(64, LineSize)
	var buf8 [8]byte
	if err := as.Read(small, buf8[:]); err != nil {
		t.Fatal(err)
	}
	big := as.Alloc(3*PageSize, PageSize)
	span := make([]byte, 2*PageSize+100)
	if err := as.Read(big+50, span); err != nil {
		t.Fatal(err)
	}
	want := []Extent{
		{Addr: small, Size: 8},
		{Addr: big + 50, Size: uint64(len(span))},
	}
	if len(w.ranges) != len(want) {
		t.Fatalf("observed %d reads, want %d: %+v", len(w.ranges), len(want), w.ranges)
	}
	for i, r := range w.ranges {
		if r != want[i] {
			t.Fatalf("read %d observed as %+v, want %+v", i, r, want[i])
		}
	}

	as.SetReadWatch(nil)
	if err := as.Read(small, buf8[:]); err != nil {
		t.Fatal(err)
	}
	if len(w.ranges) != len(want) {
		t.Fatal("cleared watcher still observed a read")
	}
}

// TestExtentOverlaps pins the half-open overlap arithmetic the epoch
// reclaimer's read watch depends on.
func TestExtentOverlaps(t *testing.T) {
	e := Extent{Addr: 100, Size: 50}
	cases := []struct {
		a    VAddr
		n    uint64
		want bool
	}{
		{0, 100, false},  // ends exactly at the extent
		{0, 101, true},   // one byte in
		{149, 1, true},   // last byte
		{150, 10, false}, // starts exactly past it
		{120, 5, true},   // inside
		{90, 200, true},  // covers
		{100, 50, true},  // exact
	}
	for _, c := range cases {
		if got := e.Overlaps(c.a, c.n); got != c.want {
			t.Fatalf("Overlaps(%d,%d) = %v, want %v", c.a, c.n, got, c.want)
		}
	}
}

// layOut maps a few ranges in as, one spanning two page-table chunks,
// and writes a pattern into most of their pages, leaving every fifth
// page of the largest one untouched.
func layOut(as *AddressSpace, seed byte) {
	small := as.Alloc(100, 8)
	as.MustWrite(small, []byte{seed, seed + 1, seed + 2})
	span := as.Alloc(3*PageSize+100, LineSize)
	buf := make([]byte, 2*PageSize+10)
	for i := range buf {
		buf[i] = byte(i) ^ seed
	}
	as.MustWrite(span+PageSize-5, buf)
	big := as.Alloc(3<<20, PageSize)
	for off := uint64(0); off < 3<<20; off += PageSize {
		if off%(5*PageSize) != 0 {
			as.MustWrite(big+VAddr(off), buf[off%64:][:16])
		}
	}
}

// pageView is what an address space shows of one virtual page.
type pageView struct {
	pa    PAddr
	bytes []byte
}

// view reads every page from firstVAddr up to the break.
func view(as *AddressSpace) map[uint64]pageView {
	pages := map[uint64]pageView{}
	for vp := firstVAddr.Page(); vp <= (as.Brk() - 1).Page(); vp++ {
		a := VAddr(vp << PageShift)
		pa, err := as.Translate(a)
		if err != nil {
			continue
		}
		b := make([]byte, PageSize)
		as.MustRead(a, b)
		pages[vp] = pageView{pa, b}
	}
	return pages
}

// TestSnapshotRestoreRoundTrip takes an image of a laid-out address
// space and restores it after Reset: the break, mapping count, frames
// reserved and every mapped page's translation and bytes come back. A
// write after Restore leaves the image as it was, Physical.Reset after a
// larger process leaves every frame zero, and a traced Restore emits
// the page_map instants of the mapping it replaces.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, opts := range [][]ASOption{nil, {WithContiguousFrames()}} {
		phys := NewPhysical()
		as := NewAddressSpace(phys, opts...)
		tr := trace.New(1 << 12)
		as.SetTracer(tr)
		layOut(as, 7)
		brk, mapped, frames := as.Brk(), as.MappedPages(), phys.FramesAllocated()
		img := as.Snapshot(nil)
		// Viewing reads every page, so it comes after the snapshot:
		// untouched pages must restore as zero without being imaged.
		want, wantEvents := view(as), tr.Events()
		if mapped == 0 || len(want) != mapped || len(wantEvents) != mapped {
			t.Fatalf("layout mapped %d pages, viewed %d, traced %d", mapped, len(want), len(wantEvents))
		}

		restore := func(tr *trace.Tracer) {
			t.Helper()
			phys.Reset()
			as.Reset()
			as.SetTracer(tr)
			as.Restore(img)
			if as.Brk() != brk || as.MappedPages() != mapped || phys.FramesAllocated() != frames {
				t.Fatalf("restored brk %#x, %d pages, %d frames; want %#x, %d, %d",
					as.Brk(), as.MappedPages(), phys.FramesAllocated(), brk, mapped, frames)
			}
			if got := view(as); !reflect.DeepEqual(got, want) {
				t.Fatal("restored pages differ from the snapshot's")
			}
		}
		restoreTr := trace.New(1 << 12)
		restore(restoreTr)
		if got := restoreTr.Events(); !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("traced Restore emitted %d events, want the %d page_map instants of the build", len(got), len(wantEvents))
		}
		// Writes after Restore reach the machine's memory, not the image.
		for vp := range want {
			as.MustWrite(VAddr(vp<<PageShift+100), []byte{0xee, 0xee})
		}
		as.Alloc(PageSize, PageSize)
		restore(nil)

		// A larger process, including a direct write above the frames it
		// reserved, leaves nothing behind in reset physical memory.
		layOut(as, 9)
		layOut(as, 11)
		phys.Write(PAddr((phys.nextFrame+5)<<PageShift), []byte{1, 2, 3})
		phys.Reset()
		as.Reset()
		if phys.FramesAllocated() != 0 || as.MappedPages() != 0 || as.Brk() != firstVAddr {
			t.Fatalf("reset memory holds %d frames, %d pages, brk %#x", phys.FramesAllocated(), as.MappedPages(), as.Brk())
		}
		for c, ch := range phys.chunks {
			for i, b := range ch {
				if b != nil && !bytes.Equal(b, make([]byte, PageSize)) {
					t.Fatalf("frame %d holds bytes after Physical.Reset", c<<physChunkShift+i)
				}
			}
		}
		if _, err := as.Translate(firstVAddr); err == nil {
			t.Fatal("a page translates after AddressSpace.Reset")
		}
	}
}
