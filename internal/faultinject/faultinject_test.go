package faultinject

import "testing"

func TestParseScheduleRoundTrip(t *testing.T) {
	s, err := ParseSchedule("42:flip=0.25,spurious=1,nocdrop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || s.Rate[BitFlip] != 0.25 || s.Rate[Spurious] != 1 || s.Rate[NoCDrop] != 0.5 {
		t.Fatalf("parsed %+v", s)
	}
	back, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("String() %q does not re-parse: %v", s.String(), err)
	}
	if back != s {
		t.Fatalf("round trip changed schedule: %+v vs %+v", back, s)
	}
	if !s.Enabled() {
		t.Fatal("schedule with rates reports disabled")
	}

	empty, err := ParseSchedule("7:")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Enabled() || empty.Seed != 7 {
		t.Fatalf("bare-seed schedule: %+v", empty)
	}

	for _, bad := range []string{"", "x:flip=1", "1:flip", "1:flip=2", "1:bogus=0.5", "1:flip=-1"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	sched, _ := ParseSchedule("99:flip=0.3,nocdelay=0.2,shootdown=0.1,spurious=0.4")
	run := func() []uint64 {
		inj := New(sched)
		inj.Arm()
		var seq []uint64
		buf := make([]byte, 8)
		for n := 0; n < 200; n++ {
			if inj.MaybeFlip(uint64(n)*64, buf) {
				seq = append(seq, uint64(n))
			}
			seq = append(seq, inj.NoCDelayCycles())
			if inj.TLBShootdown() {
				seq = append(seq, 1000+uint64(n))
			}
			if inj.SpuriousFault() {
				seq = append(seq, 2000+uint64(n))
			}
		}
		seq = append(seq, inj.Injected())
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if a[len(a)-1] == 0 {
		t.Fatal("schedule with rates up to 0.4 never injected in 200 rounds")
	}
}

func TestInjectorRateExtremes(t *testing.T) {
	always, _ := ParseSchedule("1:spurious=1")
	inj := New(always)
	inj.Arm()
	for n := 0; n < 50; n++ {
		if !inj.SpuriousFault() {
			t.Fatalf("rate-1.0 kind missed at opportunity %d", n)
		}
	}

	never := New(Schedule{Seed: 1})
	never.Arm()
	buf := []byte{0xAA}
	for n := 0; n < 50; n++ {
		if never.MaybeFlip(0, buf) || never.NoCDrop() || never.EvictLine() {
			t.Fatal("zero-rate schedule injected")
		}
	}
	if buf[0] != 0xAA {
		t.Fatal("zero-rate MaybeFlip mutated the buffer")
	}
	if never.ops[BitFlip] != 50 {
		t.Fatalf("opportunities = %d, want 50", never.ops[BitFlip])
	}
}

func TestInjectorDisarmedAndNil(t *testing.T) {
	inj := New(Schedule{Seed: 3, Rate: [numKinds]float64{1, 1, 1, 1, 1, 1}})
	buf := []byte{0x55}
	if inj.MaybeFlip(0, buf) || inj.SpuriousFault() || inj.NoCDrop() {
		t.Fatal("disarmed injector fired")
	}
	if inj.ops[BitFlip] != 0 {
		t.Fatal("disarmed injector consumed an opportunity")
	}
	inj.Arm()
	if !inj.SpuriousFault() {
		t.Fatal("armed rate-1.0 injector did not fire")
	}
	inj.Disarm()
	if inj.SpuriousFault() {
		t.Fatal("re-disarmed injector fired")
	}

	var nilInj *Injector
	if nilInj.MaybeFlip(0, buf) || nilInj.NoCDrop() ||
		nilInj.TLBShootdown() || nilInj.SpuriousFault() || nilInj.EvictLine() ||
		nilInj.NoCDelayCycles() != 0 || nilInj.Injected() != 0 ||
		nilInj.Hits(BitFlip) != 0 {
		t.Fatal("nil injector is not a no-op")
	}
	nilInj.Arm()
	nilInj.Disarm()
	if buf[0] != 0x55 {
		t.Fatal("buffer mutated by disarmed/nil hooks")
	}
}

func TestMaybeFlipFlipsExactlyOneBit(t *testing.T) {
	sched, _ := ParseSchedule("5:flip=1")
	inj := New(sched)
	inj.Arm()
	buf := make([]byte, 16)
	if !inj.MaybeFlip(0x4000, buf) {
		t.Fatal("rate-1.0 flip missed")
	}
	ones := 0
	for _, b := range buf {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", ones)
	}
}
