// Package mem implements the simulated memory system underneath the QEI
// reproduction: a sparse physical memory, per-process virtual address
// spaces with 4 KB pages, a deliberately fragmenting frame allocator, and
// hierarchical page tables.
//
// The memory is functional, not just a timing fiction: every data
// structure the workloads query is laid out in these bytes, and both the
// software baseline and the QEI accelerator read the same bytes, so query
// results can be checked against host-side reference implementations.
//
// Fragmentation matters to the paper: QEI argues that queried data
// structures rarely sit in one contiguous huge page [8, 26], which is why
// the accelerator needs a real address-translation path. AddressSpace
// therefore hands out physical frames in a shuffled order by default so
// that virtually contiguous allocations are physically scattered.
package mem

import (
	"encoding/binary"
	"fmt"

	"qei/internal/faultinject"
	"qei/internal/trace"
)

const (
	// PageSize is the size of a virtual memory page (4 KB, matching the
	// paper's assumption that structures span many base pages).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// LineSize is the cacheline size (64 B), the granularity of QEI memory
	// micro-operations (Sec. IV-B).
	LineSize = 64
	// LineShift is log2(LineSize).
	LineShift = 6
)

// VAddr is a virtual address in a simulated address space.
type VAddr uint64

// PAddr is a physical address in simulated DRAM.
type PAddr uint64

// Line returns the address of the cacheline containing a.
func (a VAddr) Line() VAddr { return a &^ (LineSize - 1) }

// Extent is a contiguous virtual range: the unit the epoch-based
// reclaimer retires, poisons, and recycles (internal/epoch), and the
// unit the dstruct mutators report when they unlink a node.
type Extent struct {
	Addr VAddr
	Size uint64
}

// Overlaps reports whether the extent intersects [a, a+n).
func (e Extent) Overlaps(a VAddr, n uint64) bool {
	return uint64(a) < uint64(e.Addr)+e.Size && uint64(e.Addr) < uint64(a)+n
}

// Allocator is the subset of AddressSpace the structure mutators need
// to place new nodes. epoch.GC implements it too, recycling reclaimed
// extents instead of growing the address space forever.
type Allocator interface {
	Alloc(size, align uint64) VAddr
}

// ReadWatcher observes every successful virtual read (see
// SetReadWatch). The epoch reclaimer uses it to flag dereferences of
// reclaimed-but-not-yet-reused extents — the read-after-retire bug
// class the epoch protocol exists to prevent.
type ReadWatcher interface {
	ObserveRead(a VAddr, n uint64)
}

// Page returns the virtual page number containing a.
func (a VAddr) Page() uint64 { return uint64(a) >> PageShift }

// Offset returns the offset of a within its page.
func (a VAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Line returns the address of the cacheline containing p.
func (p PAddr) Line() PAddr { return p &^ (LineSize - 1) }

// Frame returns the physical frame number containing p.
func (p PAddr) Frame() uint64 { return uint64(p) >> PageShift }

// physChunkShift sizes the chunks of the two-level frame table: 1024
// frames (4 MB of simulated memory) per chunk.
const (
	physChunkShift = 10
	physChunkSize  = 1 << physChunkShift
	physChunkMask  = physChunkSize - 1
)

// Physical is the machine's sparse physical memory: a pool of 4 KB frames
// allocated on demand. Frames live in a two-level flat table — a slice
// of fixed-size chunks — so the per-access path is two array index
// operations instead of a map lookup (this sits under every simulated
// byte the workloads touch).
type Physical struct {
	chunks    [][][]byte
	nextFrame uint64
}

// NewPhysical returns an empty physical memory. Frame 0 is reserved so a
// zero PAddr can act as "unmapped".
func NewPhysical() *Physical {
	return &Physical{nextFrame: 1}
}

// allocFrame reserves the next physical frame and returns its number.
func (p *Physical) allocFrame() uint64 {
	f := p.nextFrame
	p.nextFrame++
	return f
}

// FramesAllocated reports how many frames have been reserved.
func (p *Physical) FramesAllocated() uint64 { return p.nextFrame - 1 }

func (p *Physical) frame(f uint64) []byte {
	c := f >> physChunkShift
	if c < uint64(len(p.chunks)) {
		if ch := p.chunks[c]; ch != nil {
			if b := ch[f&physChunkMask]; b != nil {
				return b
			}
		}
	}
	return p.growFrame(f)
}

// growFrame is the cold path of frame: materialize the chunk and/or the
// frame's backing bytes.
func (p *Physical) growFrame(f uint64) []byte {
	c := f >> physChunkShift
	for uint64(len(p.chunks)) <= c {
		p.chunks = append(p.chunks, nil)
	}
	if p.chunks[c] == nil {
		p.chunks[c] = make([][]byte, physChunkSize)
	}
	b := p.chunks[c][f&physChunkMask]
	if b == nil {
		b = make([]byte, PageSize)
		p.chunks[c][f&physChunkMask] = b
	}
	return b
}

// Read copies len(dst) bytes starting at physical address a. The range may
// cross frame boundaries.
func (p *Physical) Read(a PAddr, dst []byte) {
	for len(dst) > 0 {
		off := uint64(a) & (PageSize - 1)
		n := copy(dst, p.frame(a.Frame())[off:])
		dst = dst[n:]
		a += PAddr(n)
	}
}

// Write copies src into physical memory starting at address a.
func (p *Physical) Write(a PAddr, src []byte) {
	for len(src) > 0 {
		off := uint64(a) & (PageSize - 1)
		n := copy(p.frame(a.Frame())[off:], src)
		src = src[n:]
		a += PAddr(n)
	}
}

// PageFaultError reports an access to an unmapped virtual page. QEI
// surfaces these to the core through its EXCEPTION state (Sec. IV-D).
type PageFaultError struct {
	Addr VAddr
}

func (e *PageFaultError) Error() string {
	return fmt.Sprintf("mem: page fault at virtual address %#x", uint64(e.Addr))
}

// pageChunkShift sizes the chunks of the two-level page table: 512
// pages (2 MB of virtual address space) per chunk.
const (
	pageChunkShift = 9
	pageChunkSize  = 1 << pageChunkShift
	pageChunkMask  = pageChunkSize - 1
)

// unmappedFrame marks an unmapped page-table entry (frame numbers are
// small positive integers, so all-ones is free).
const unmappedFrame = ^uint64(0)

// AddressSpace is a per-process virtual address space: a page table over
// shared physical memory plus a simple bump allocator for virtual ranges.
type AddressSpace struct {
	phys *Physical
	// pt maps virtual page number to physical frame number through a
	// two-level flat table: pt[vp>>pageChunkShift][vp&pageChunkMask].
	// A nil chunk or an unmappedFrame entry means unmapped. Pages are
	// only ever added (there is no unmap), which is what makes the
	// last-page cache below safe without invalidation.
	pt     [][]uint64
	mapped int
	// lastVP/lastFrame cache the most recent successful translation;
	// dependent pointer chases hit the same page repeatedly, so this
	// answers most Translate calls with one comparison. lastVP starts
	// as unmappedFrame, which no valid page number equals.
	lastVP    uint64
	lastFrame uint64
	// brk is the next unallocated virtual address.
	brk VAddr
	// frameStride scatters consecutive virtual pages across physical
	// frames. A stride of 1 would be the contiguous (huge-page-friendly)
	// layout prior accelerators assume; the default of a large odd stride
	// models the fragmented layouts cloud workloads actually see.
	frameStride uint64
	walkLevels  int
	// tr receives page_map instants (see SetTracer); nil disables them.
	tr *trace.Tracer
	// fi may corrupt data returned by Read while armed (see
	// SetFaultInjector); nil disables injection.
	fi *faultinject.Injector
	// watch observes successful reads (see SetReadWatch); nil disables
	// the hook, so read-only systems pay one comparison.
	watch ReadWatcher
}

// SetReadWatch installs (or clears, with nil) a watcher that sees every
// successful Read. The hook fires after the copy, on both the
// single-page fast path and the multi-page path, so a watcher observes
// exactly the ranges the simulated machine dereferenced.
func (as *AddressSpace) SetReadWatch(w ReadWatcher) { as.watch = w }

// ASOption configures an AddressSpace.
type ASOption func(*AddressSpace)

// WithContiguousFrames lays virtual pages out over physically consecutive
// frames — the huge-page assumption made by HALO-style designs. Used by
// ablation experiments.
func WithContiguousFrames() ASOption {
	return func(as *AddressSpace) { as.frameStride = 1 }
}

// NewAddressSpace creates an address space over phys. By default virtual
// allocations begin at 0x10000 (so that VAddr 0 is an unmapped NULL) and
// physical frames are fragmented.
func NewAddressSpace(phys *Physical, opts ...ASOption) *AddressSpace {
	as := &AddressSpace{
		phys:        phys,
		lastVP:      unmappedFrame,
		brk:         0x10000,
		frameStride: 0, // 0 = on-demand, naturally interleaved
		walkLevels:  4, // x86-64 style 4-level walk
	}
	for _, o := range opts {
		o(as)
	}
	return as
}

// WalkLevels reports the number of page-table levels a hardware walker
// traverses on a TLB miss (4, x86-64 style).
func (as *AddressSpace) WalkLevels() int { return as.walkLevels }

// Brk returns the next virtual address the allocator would hand out.
func (as *AddressSpace) Brk() VAddr { return as.brk }

// MappedPages reports how many virtual pages are mapped.
func (as *AddressSpace) MappedPages() int { return as.mapped }

// frameOf looks up the frame backing virtual page vp.
func (as *AddressSpace) frameOf(vp uint64) (uint64, bool) {
	c := vp >> pageChunkShift
	if c < uint64(len(as.pt)) {
		if ch := as.pt[c]; ch != nil {
			if f := ch[vp&pageChunkMask]; f != unmappedFrame {
				return f, true
			}
		}
	}
	return 0, false
}

// setFrame installs vp → frame, growing the table as needed.
func (as *AddressSpace) setFrame(vp, frame uint64) {
	c := vp >> pageChunkShift
	for uint64(len(as.pt)) <= c {
		as.pt = append(as.pt, nil)
	}
	if as.pt[c] == nil {
		ch := make([]uint64, pageChunkSize)
		for i := range ch {
			ch[i] = unmappedFrame
		}
		as.pt[c] = ch
	}
	as.pt[c][vp&pageChunkMask] = frame
}

// Alloc reserves size bytes of virtual memory aligned to align (which must
// be a power of two, at least 1) and maps the backing pages. It returns
// the starting virtual address.
func (as *AddressSpace) Alloc(size uint64, align uint64) VAddr {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (uint64(as.brk) + align - 1) &^ (align - 1)
	as.brk = VAddr(base + size)
	if size == 0 {
		return VAddr(base)
	}
	firstPage := base >> PageShift
	lastPage := (base + size - 1) >> PageShift
	for vp := firstPage; vp <= lastPage; vp++ {
		as.mapPage(vp)
	}
	return VAddr(base)
}

// AllocLines reserves size bytes aligned to a cacheline boundary.
func (as *AddressSpace) AllocLines(size uint64) VAddr {
	return as.Alloc(size, LineSize)
}

func (as *AddressSpace) mapPage(vp uint64) {
	if _, ok := as.frameOf(vp); ok {
		return
	}
	if as.tr != nil {
		as.tr.Point("mem", "page_map", uint64(as.mapped), trace.PidMem, 0, nil)
	}
	var frame uint64
	if as.frameStride == 1 {
		frame = as.phys.allocFrame()
	} else {
		// Scatter: allocate a fresh frame but interleave with a second
		// allocation every few pages so consecutive virtual pages land on
		// non-consecutive frames. Deterministic, no RNG required.
		frame = as.phys.allocFrame()
		if vp%3 == 1 {
			// Burn a frame to create a hole; models other allocations
			// interleaving in a long-running server.
			as.phys.allocFrame()
		}
	}
	as.setFrame(vp, frame)
	as.mapped++
}

// Translate converts a virtual address to a physical address, or reports a
// page fault if the page is unmapped.
func (as *AddressSpace) Translate(a VAddr) (PAddr, error) {
	vp := a.Page()
	if vp == as.lastVP {
		return PAddr(as.lastFrame<<PageShift | a.Offset()), nil
	}
	frame, ok := as.frameOf(vp)
	if !ok {
		return 0, &PageFaultError{Addr: a}
	}
	as.lastVP, as.lastFrame = vp, frame
	return PAddr(frame<<PageShift | a.Offset()), nil
}

// Contiguous reports whether the size-byte range at base maps to
// physically consecutive frames (i.e. would fit a huge-page assumption).
func (as *AddressSpace) Contiguous(base VAddr, size uint64) bool {
	if size == 0 {
		return true
	}
	first := base.Page()
	last := (uint64(base) + size - 1) >> PageShift
	prev, ok := as.frameOf(first)
	if !ok {
		return false
	}
	for vp := first + 1; vp <= last; vp++ {
		f, ok := as.frameOf(vp)
		if !ok || f != prev+1 {
			return false
		}
		prev = f
	}
	return true
}

// Read copies len(dst) bytes from virtual address a, faulting if any page
// in the range is unmapped. Ranges within one page — every dstruct
// field decode and almost every key read — take a single-translate,
// single-copy fast path.
func (as *AddressSpace) Read(a VAddr, dst []byte) error {
	if n := uint64(len(dst)); n > 0 && n <= PageSize-a.Offset() {
		pa, err := as.Translate(a)
		if err != nil {
			return err
		}
		copy(dst, as.phys.frame(pa.Frame())[a.Offset():])
		// The injector sees the same post-range address the multi-page
		// path below would hand it.
		as.fi.MaybeFlip(uint64(a)+n, dst)
		if as.watch != nil {
			as.watch.ObserveRead(a, n)
		}
		return nil
	}
	origDst := dst
	for len(dst) > 0 {
		pa, err := as.Translate(a)
		if err != nil {
			return err
		}
		n := int(PageSize - a.Offset())
		if n > len(dst) {
			n = len(dst)
		}
		as.phys.Read(pa, dst[:n])
		dst = dst[n:]
		a += VAddr(n)
	}
	// A bit-flip corrupts only this read's view of the data — stored
	// memory stays intact, modelling a transient upset on the read path.
	as.fi.MaybeFlip(uint64(a), origDst)
	if as.watch != nil {
		as.watch.ObserveRead(a-VAddr(len(origDst)), uint64(len(origDst)))
	}
	return nil
}

// Write copies src to virtual address a, faulting if unmapped.
func (as *AddressSpace) Write(a VAddr, src []byte) error {
	if n := uint64(len(src)); n > 0 && n <= PageSize-a.Offset() {
		pa, err := as.Translate(a)
		if err != nil {
			return err
		}
		copy(as.phys.frame(pa.Frame())[a.Offset():], src)
		return nil
	}
	for len(src) > 0 {
		pa, err := as.Translate(a)
		if err != nil {
			return err
		}
		n := int(PageSize - a.Offset())
		if n > len(src) {
			n = len(src)
		}
		as.phys.Write(pa, src[:n])
		src = src[n:]
		a += VAddr(n)
	}
	return nil
}

// MustRead is Read but panics on fault; for use by builders that have just
// allocated the range themselves.
func (as *AddressSpace) MustRead(a VAddr, dst []byte) {
	if err := as.Read(a, dst); err != nil {
		panic(err)
	}
}

// MustWrite is Write but panics on fault.
func (as *AddressSpace) MustWrite(a VAddr, src []byte) {
	if err := as.Write(a, src); err != nil {
		panic(err)
	}
}

// ReadU64 reads a little-endian uint64 at a.
func (as *AddressSpace) ReadU64(a VAddr) (uint64, error) {
	var buf [8]byte
	if err := as.Read(a, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// ReadU16 reads a little-endian uint16 at a.
func (as *AddressSpace) ReadU16(a VAddr) (uint16, error) {
	var buf [2]byte
	if err := as.Read(a, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(buf[:]), nil
}

// LinesTouched returns how many distinct cachelines the byte range
// [a, a+size) spans — the number of memory micro-operations QEI needs to
// stream it.
func LinesTouched(a VAddr, size uint64) int {
	if size == 0 {
		return 0
	}
	first := uint64(a) >> LineShift
	last := (uint64(a) + size - 1) >> LineShift
	return int(last - first + 1)
}
