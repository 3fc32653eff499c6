package noc

import (
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

func TestXYRoutingDeterministic(t *testing.T) {
	m := New(testConfig())
	a, b := m.StopAt(1, 1), m.StopAt(4, 3)
	m.Send(a, b, 10)
	hot := m.Hotspots(100)
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
	hot := m.Hotspots(2)
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
