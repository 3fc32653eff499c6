package noc

import (
	"sort"
	"testing"
	"testing/quick"
)

// testConfig is a 6x4 mesh (24 stops) with 1 cycle per hop and per
// router and 32 B/cycle links: the round numbers these tests assert
// against. The Tab. II chip's routers take 2 cycles (hwdesc.Default).
func testConfig() Config {
	return Config{Cols: 6, Rows: 4, HopLatency: 1, RouterLatency: 1, LinkBytesPerCycle: 32}
}

func TestCoordRoundTrip(t *testing.T) {
	m := New(testConfig())
	for s := Stop(0); int(s) < m.Stops(); s++ {
		c, r := m.Coord(s)
		if m.StopAt(c, r) != s {
			t.Fatalf("StopAt(Coord(%d)) = %d", s, m.StopAt(c, r))
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	m := New(testConfig())
	a := m.StopAt(0, 0)
	b := m.StopAt(5, 3)
	if got := m.Hops(a, b); got != 8 {
		t.Fatalf("Hops corner-to-corner = %d, want 8", got)
	}
	if got := m.Hops(a, a); got != 0 {
		t.Fatalf("Hops self = %d, want 0", got)
	}
}

func TestLatencyComposition(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	a, b := m.StopAt(0, 0), m.StopAt(2, 1)
	// 3 hops, 4 routers with the default 1+1 cycle costs.
	want := uint64(3)*cfg.HopLatency + uint64(4)*cfg.RouterLatency
	if got := m.Latency(a, b); got != want {
		t.Fatalf("Latency = %d, want %d", got, want)
	}
	if got := m.RoundTrip(a, b); got != 2*want {
		t.Fatalf("RoundTrip = %d, want %d", got, 2*want)
	}
}

func TestLocalDeliveryPaysRouter(t *testing.T) {
	m := New(testConfig())
	if got := m.Latency(3, 3); got != m.Config().RouterLatency {
		t.Fatalf("self latency = %d, want %d", got, m.Config().RouterLatency)
	}
}

func TestSendAccountsTraffic(t *testing.T) {
	m := New(testConfig())
	a, b := m.StopAt(0, 0), m.StopAt(3, 0)
	m.Send(a, b, 64)
	m.ObserveWindow(100)
	peak, total := m.LinkUtilization()
	if total != 3*64 { // three links on the row
		t.Fatalf("total bytes = %d, want %d", total, 3*64)
	}
	wantPeak := 64.0 / (100 * m.Config().LinkBytesPerCycle)
	if peak != wantPeak {
		t.Fatalf("peak utilization = %g, want %g", peak, wantPeak)
	}
}

// hotspot is one link's traffic total.
type hotspot struct {
	From, To Stop
	Bytes    uint64
}

// hotspots returns the n busiest links of m, ordered by a total key —
// (bytes desc, from, to) — so the report is deterministic.
func hotspots(m *Mesh, n int) []hotspot {
	var entries []hotspot
	for i, b := range m.linkBytes {
		if b == 0 {
			continue // untouched link: never carried a transfer
		}
		from := Stop(i / linkDirs)
		to := neighbour(m, from, i%linkDirs)
		if to < 0 {
			continue
		}
		entries = append(entries, hotspot{From: from, To: to, Bytes: b})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Bytes != entries[j].Bytes {
			return entries[i].Bytes > entries[j].Bytes
		}
		if entries[i].From != entries[j].From {
			return entries[i].From < entries[j].From
		}
		return entries[i].To < entries[j].To
	})
	if n < len(entries) {
		entries = entries[:n]
	}
	return entries
}

// neighbour returns the stop of m adjacent to s in direction dir, or -1 when
// the link would leave the mesh.
func neighbour(m *Mesh, s Stop, dir int) Stop {
	c, r := m.Coord(s)
	switch dir {
	case dirEast:
		c++
	case dirWest:
		c--
	case dirSouth:
		r++
	default:
		r--
	}
	if c < 0 || c >= m.cfg.Cols || r < 0 || r >= m.cfg.Rows {
		return -1
	}
	return Stop(r*m.cfg.Cols + c)
}

func TestXYRoutingDeterministic(t *testing.T) {
	m := New(testConfig())
	a, b := m.StopAt(1, 1), m.StopAt(4, 3)
	m.Send(a, b, 10)
	hot := hotspots(m, 100)
	// XY: traverse columns first at row 1, then down column 4.
	if len(hot) != m.Hops(a, b) {
		t.Fatalf("links touched = %d, want %d", len(hot), m.Hops(a, b))
	}
	for _, h := range hot {
		if h.Bytes != 10 {
			t.Fatalf("link %d->%d carried %d bytes, want 10", h.From, h.To, h.Bytes)
		}
	}
}

func TestHotspotsOrdering(t *testing.T) {
	m := New(testConfig())
	m.Send(m.StopAt(0, 0), m.StopAt(1, 0), 100) // one link, 100 B
	m.Send(m.StopAt(2, 0), m.StopAt(3, 0), 40)  // one link, 40 B
	hot := hotspots(m, 2)
	if len(hot) != 2 || hot[0].Bytes != 100 || hot[1].Bytes != 40 {
		t.Fatalf("hotspots = %+v", hot)
	}
}

func TestResetTraffic(t *testing.T) {
	m := New(testConfig())
	m.Send(0, 5, 64)
	m.ObserveWindow(10)
	m.ResetTraffic()
	peak, total := m.LinkUtilization()
	if peak != 0 || total != 0 {
		t.Fatalf("after reset: peak=%g total=%d", peak, total)
	}
}

func TestMeanUtilization(t *testing.T) {
	cfg := Config{Cols: 2, Rows: 1, HopLatency: 1, RouterLatency: 1, LinkBytesPerCycle: 10}
	m := New(cfg)
	m.Send(0, 1, 50)
	m.ObserveWindow(10)
	// 2 directed links, capacity 10 cycles * 10 B * 2 = 200; 50 moved.
	if got := m.MeanUtilization(); got != 0.25 {
		t.Fatalf("MeanUtilization = %g, want 0.25", got)
	}
}

// Property: latency is symmetric and satisfies the triangle inequality
// (true for Manhattan distance with uniform per-hop costs).
func TestPropertyLatencyMetric(t *testing.T) {
	m := New(testConfig())
	n := m.Stops()
	f := func(ai, bi, ci uint8) bool {
		a := Stop(int(ai) % n)
		b := Stop(int(bi) % n)
		c := Stop(int(ci) % n)
		if m.Latency(a, b) != m.Latency(b, a) {
			return false
		}
		// Subtract the injection-router constant before checking the
		// triangle inequality on the distance part.
		rl := m.Config().RouterLatency
		d := func(x, y Stop) uint64 { return m.Latency(x, y) - rl }
		return d(a, c) <= d(a, b)+d(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Send touches exactly Hops(a,b) links and conserves bytes.
func TestPropertySendConservation(t *testing.T) {
	f := func(ai, bi uint8, payload uint16) bool {
		m := New(testConfig())
		n := m.Stops()
		a := Stop(int(ai) % n)
		b := Stop(int(bi) % n)
		m.Send(a, b, uint64(payload))
		m.ObserveWindow(1)
		_, total := m.LinkUtilization()
		return total == uint64(m.Hops(a, b))*uint64(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
