package workload

import (
	"reflect"
	"runtime"
	"sync"

	"qei/internal/hwdesc"
	"qei/internal/machine"
	"qei/internal/mem"
)

// machines is the free list of idle sessions, each holding a machine
// reset to the state machine.New builds from its Desc together with the
// run state kept with it (see session). A run takes one whose machine's
// Desc equals its own and hands it back, reset, when it ends, so the
// cells of a matrix reuse one chip's cache arrays, core, accelerator
// and buffers instead of building them per run. It holds at most
// GOMAXPROCS sessions; handing one back to a full list drops the least
// recently returned. It is a pool, but not a sync.Pool: a run needs a
// machine of its own description, and a sync.Pool would be emptied by
// the collections every run triggers.
var machines struct {
	sync.Mutex
	free []*session
}

// takeSession removes and returns the most recently returned idle
// session on a machine described by d, or builds one outside the lock.
func takeSession(d *hwdesc.Description) *session {
	machines.Lock()
	for i := len(machines.free) - 1; i >= 0; i-- {
		if s := machines.free[i]; reflect.DeepEqual(&s.m.Desc, d) {
			machines.free = append(machines.free[:i], machines.free[i+1:]...)
			machines.Unlock()
			return s
		}
	}
	machines.Unlock()
	return newSession(*d)
}

// giveSession resets s's machine and puts s on the free list.
func giveSession(s *session) {
	s.m.Reset()
	machines.Lock()
	defer machines.Unlock()
	if n := runtime.GOMAXPROCS(0); len(machines.free) >= n {
		machines.free = append(machines.free[:0], machines.free[len(machines.free)-n+1:]...)
	}
	machines.free = append(machines.free, s)
}

// image is one benchmark's built guest memory and plan on one
// description of machine.
type image struct {
	bench Benchmark
	desc  hwdesc.Description
	plan  *Plan
	mem   *mem.Image
}

// images holds the guest-memory images of the benchmarks built most
// recently, at most GOMAXPROCS, so the cells of a matrix that play one
// benchmark on one chip build it once. An evicted image's buffers take
// the next snapshot. Restores and snapshots run under the lock, so no
// image is overwritten while a run restores from it.
var images struct {
	sync.Mutex
	list []*image // least recently used first
}

// build lays bench out in m, which is in the state machine.New builds,
// and returns its plan. If an earlier run built an equal benchmark (by
// ==, for comparable benchmark types) on an equal description, build
// restores that run's image into m and returns its plan, shared with
// every run that restores it; otherwise it calls Build and keeps an
// image of the result.
func build(bench Benchmark, m *machine.Machine) (*Plan, error) {
	if !reflect.TypeOf(bench).Comparable() {
		return bench.Build(m)
	}
	images.Lock()
	if img := takeImage(bench, &m.Desc); img != nil {
		m.AS.Restore(img.mem)
		images.list = append(images.list, img)
		images.Unlock()
		return img.plan, nil
	}
	images.Unlock()
	plan, err := bench.Build(m)
	if err != nil {
		return nil, err
	}
	images.Lock()
	defer images.Unlock()
	// Another run may have built the same benchmark meanwhile.
	img := takeImage(bench, &m.Desc)
	if img == nil {
		img = &image{bench: bench, desc: m.Desc, plan: plan}
		if n := runtime.GOMAXPROCS(0); len(images.list) >= n {
			img.mem = images.list[len(images.list)-n].mem
			images.list = append(images.list[:0], images.list[len(images.list)-n+1:]...)
		}
		img.mem = m.AS.Snapshot(img.mem)
	}
	images.list = append(images.list, img)
	return plan, nil
}

// takeImage removes and returns the image of bench on d, or nil if
// there is none. The caller holds the images lock.
func takeImage(bench Benchmark, d *hwdesc.Description) *image {
	for i, img := range images.list {
		if img.of(bench, d) {
			images.list = append(images.list[:i], images.list[i+1:]...)
			return img
		}
	}
	return nil
}

// of reports whether img is an image of bench on d.
func (img *image) of(bench Benchmark, d *hwdesc.Description) bool {
	return img.bench == bench && reflect.DeepEqual(&img.desc, d)
}
