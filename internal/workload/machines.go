package workload

import (
	"reflect"
	"runtime"
	"sync"

	"qei/internal/hwdesc"
	"qei/internal/machine"
)

// machines is the free list of idle machines, each reset to the state
// machine.New builds from its Desc. A run takes one whose Desc equals
// its own and hands it back, reset, when it ends, so the cells of a
// matrix reuse one chip's cache arrays instead of building them per
// run. It holds at most GOMAXPROCS machines; handing one back to a full
// list drops the least recently returned. It is a pool, but not a
// sync.Pool: a run needs a machine of its own description, and a
// sync.Pool would be emptied by the collections every run triggers.
var machines struct {
	sync.Mutex
	free []*machine.Machine
}

// takeMachine removes and returns the most recently returned idle
// machine described by d, or builds one outside the lock.
func takeMachine(d hwdesc.Description) *machine.Machine {
	machines.Lock()
	for i := len(machines.free) - 1; i >= 0; i-- {
		if m := machines.free[i]; reflect.DeepEqual(m.Desc, d) {
			machines.free = append(machines.free[:i], machines.free[i+1:]...)
			machines.Unlock()
			return m
		}
	}
	machines.Unlock()
	return machine.New(d)
}

// giveMachine resets m and puts it on the free list.
func giveMachine(m *machine.Machine) {
	m.Reset()
	machines.Lock()
	defer machines.Unlock()
	if n := runtime.GOMAXPROCS(0); len(machines.free) >= n {
		machines.free = append(machines.free[:0], machines.free[len(machines.free)-n+1:]...)
	}
	machines.free = append(machines.free, m)
}
