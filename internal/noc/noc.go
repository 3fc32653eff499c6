// Package noc models the on-chip mesh network connecting core tiles, LLC
// slices (via their CHAs), memory controllers, and — in the Device-based
// integration schemes — a centralized accelerator stop.
//
// The model is latency- and bandwidth-oriented rather than flit-accurate:
// a transfer between two stops costs a per-hop latency plus a router
// latency, and every link it crosses accrues the transferred bytes so that
// hotspot and utilization analyses (Sec. V, "each QEI accelerator can
// saturate as much as 8% of the mesh NoC bandwidth") can be reproduced.
// XY dimension-ordered routing keeps paths deterministic.
package noc

import (
	"fmt"

	"qei/internal/faultinject"
	"qei/internal/trace"
)

// Stop identifies a network stop (tile) on the mesh.
type Stop int

// Config describes the mesh geometry and timing.
type Config struct {
	// Cols and Rows give the mesh dimensions. Stops are numbered
	// row-major: stop = row*Cols + col.
	Cols, Rows int
	// HopLatency is the cycles to traverse one link.
	HopLatency uint64
	// RouterLatency is the cycles spent in each router on the path
	// (including the injection router).
	RouterLatency uint64
	// LinkBytesPerCycle is the bandwidth of one mesh link in bytes/cycle.
	LinkBytesPerCycle float64
}

// Directed-link direction indices for the flat traffic table: the link
// leaving stop s toward its east/west/south/north neighbour lives at
// linkBytes[s*linkDirs+dir].
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	linkDirs
)

// Mesh is a 2-D mesh NoC.
//
// Per-link traffic lives in a flat array indexed by (stop, direction)
// rather than a map keyed by stop pairs: Send is on the path of every
// simulated cache miss, and accounting a route is then pure index
// arithmetic with no per-transfer allocation.
type Mesh struct {
	cfg       Config
	linkBytes []uint64
	// totalCycles tracks the window over which utilization is measured.
	windowCycles uint64
	// sends counts transfers for the metrics registry.
	sends uint64
	// tr receives transfer spans from SendAt; nil keeps Send trace-free.
	tr *trace.Tracer
	// fi may delay or drop transfers (see SetFaultInjector); nil
	// disables injection.
	fi *faultinject.Injector
}

// New creates a mesh with the given configuration.
func New(cfg Config) *Mesh {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	return &Mesh{cfg: cfg, linkBytes: make([]uint64, cfg.Cols*cfg.Rows*linkDirs)}
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Stops returns the number of stops on the mesh.
func (m *Mesh) Stops() int { return m.cfg.Cols * m.cfg.Rows }

// Coord returns the (col, row) coordinates of a stop.
func (m *Mesh) Coord(s Stop) (col, row int) {
	if int(s) < 0 || int(s) >= m.Stops() {
		panic(fmt.Sprintf("noc: stop %d out of range [0,%d)", s, m.Stops()))
	}
	return int(s) % m.cfg.Cols, int(s) / m.cfg.Cols
}

// StopAt returns the stop at (col, row).
func (m *Mesh) StopAt(col, row int) Stop {
	if col < 0 || col >= m.cfg.Cols || row < 0 || row >= m.cfg.Rows {
		panic(fmt.Sprintf("noc: coordinate (%d,%d) out of range", col, row))
	}
	return Stop(row*m.cfg.Cols + col)
}

// Hops returns the Manhattan distance between two stops.
func (m *Mesh) Hops(a, b Stop) int {
	ac, ar := m.Coord(a)
	bc, br := m.Coord(b)
	return abs(ac-bc) + abs(ar-br)
}

// Latency returns the one-way latency in cycles for a message from a to b.
// A message to the local stop still pays one router traversal.
func (m *Mesh) Latency(a, b Stop) uint64 {
	hops := uint64(m.Hops(a, b))
	routers := hops + 1
	return hops*m.cfg.HopLatency + routers*m.cfg.RouterLatency
}

// RoundTrip returns the request+response latency between two stops.
func (m *Mesh) RoundTrip(a, b Stop) uint64 {
	return 2 * m.Latency(a, b)
}

// accountRoute walks the XY route from a to b, adding bytes to every
// directed link it crosses. No route slice is materialized: the walk is
// coordinate arithmetic over the flat traffic table.
func (m *Mesh) accountRoute(a, b Stop, bytes uint64) {
	ac, ar := m.Coord(a)
	bc, br := m.Coord(b)
	c, r := ac, ar
	for c != bc {
		s := r*m.cfg.Cols + c
		if c < bc {
			m.linkBytes[s*linkDirs+dirEast] += bytes
			c++
		} else {
			m.linkBytes[s*linkDirs+dirWest] += bytes
			c--
		}
	}
	for r != br {
		s := r*m.cfg.Cols + c
		if r < br {
			m.linkBytes[s*linkDirs+dirSouth] += bytes
			r++
		} else {
			m.linkBytes[s*linkDirs+dirNorth] += bytes
			r--
		}
	}
}

// Send accounts a transfer of bytes from a to b along the XY route and
// returns its one-way latency. Timing is returned, not scheduled; callers
// add it to their own issue cycle.
func (m *Mesh) Send(a, b Stop, bytes uint64) uint64 {
	m.sends++
	m.accountRoute(a, b, bytes)
	lat := m.Latency(a, b)
	// Injected congestion stretches this transfer by a few cycles; an
	// injected drop forces a full retransmission — the message pays the
	// path twice (link traffic included) plus a detection timeout.
	lat += m.fi.NoCDelayCycles()
	if m.fi.NoCDrop() {
		m.accountRoute(a, b, bytes)
		lat = lat*2 + dropTimeout
	}
	return lat
}

// dropTimeout is the fixed detection delay before a dropped mesh
// message is retransmitted.
const dropTimeout = 16

// SetFaultInjector attaches the fault-injection harness; while fi is
// armed, transfers may be delayed or dropped-and-retransmitted. A nil
// injector keeps transfer timing exact.
func (m *Mesh) SetFaultInjector(fi *faultinject.Injector) { m.fi = fi }

// ObserveWindow extends the utilization-measurement window to cycles.
func (m *Mesh) ObserveWindow(cycles uint64) {
	if cycles > m.windowCycles {
		m.windowCycles = cycles
	}
}

// TotalBytes returns the bytes moved across all links since the last
// reset, independent of the observation window.
func (m *Mesh) TotalBytes() uint64 {
	var total uint64
	for _, b := range m.linkBytes {
		total += b
	}
	return total
}

// LinkUtilization returns the utilization (0..1+) of the busiest link over
// the observed window, and the total bytes moved across all links.
// A zero observation window yields zero utilization (no divide).
func (m *Mesh) LinkUtilization() (peak float64, totalBytes uint64) {
	if m.windowCycles == 0 {
		return 0, 0
	}
	capacity := float64(m.windowCycles) * m.cfg.LinkBytesPerCycle
	if capacity == 0 {
		return 0, m.TotalBytes()
	}
	for _, b := range m.linkBytes {
		totalBytes += b
		if u := float64(b) / capacity; u > peak {
			peak = u
		}
	}
	return peak, totalBytes
}

// MeanUtilization returns the average utilization across all physical
// links of the mesh (including idle ones).
func (m *Mesh) MeanUtilization() float64 {
	if m.windowCycles == 0 {
		return 0
	}
	nLinks := 2 * (m.cfg.Rows*(m.cfg.Cols-1) + m.cfg.Cols*(m.cfg.Rows-1))
	if nLinks == 0 {
		return 0
	}
	capacity := float64(m.windowCycles) * m.cfg.LinkBytesPerCycle * float64(nLinks)
	if capacity == 0 {
		return 0
	}
	return float64(m.TotalBytes()) / capacity
}

// ResetTraffic clears accumulated traffic counters (geometry unchanged).
func (m *Mesh) ResetTraffic() {
	clear(m.linkBytes)
	m.windowCycles = 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
