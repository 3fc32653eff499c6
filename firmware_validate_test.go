package qei_test

// Black-box tests for the firmware admission pass: ValidateFirmware and
// RegisterFirmware must reject pathological programs with
// ErrFirmwareInvalid and accept the shipped LPM example. External test
// package so it can import the example firmware, which itself imports
// qei.

import (
	"errors"
	"fmt"
	"testing"

	"qei"
	"qei/examples/lpm_router/lpmfw"
)

// fakeFW is a configurable firmware for probing the admission pass.
type fakeFW struct {
	code   uint8
	states int
	step   func(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest
}

func (f fakeFW) TypeCode() uint8 { return f.code }
func (f fakeFW) Name() string    { return fmt.Sprintf("fake-%d", f.code) }
func (f fakeFW) NumStates() int  { return f.states }
func (f fakeFW) Step(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
	return f.step(q, s)
}

// finishImmediately is a well-behaved Step: one transition to Done.
func finishImmediately(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
	return qei.FirmwareFinish(q, false, 0)
}

func TestValidateFirmwareAcceptsLPMExample(t *testing.T) {
	if err := qei.ValidateFirmware(lpmfw.Firmware{}); err != nil {
		t.Fatalf("ValidateFirmware rejected the shipped LPM firmware: %v", err)
	}
}

func TestValidateFirmwareRejectsPathological(t *testing.T) {
	cases := []struct {
		name string
		fw   qei.Firmware
	}{
		{"too many states", fakeFW{code: 90, states: 300, step: finishImmediately}},
		{"zero states", fakeFW{code: 91, states: 0, step: finishImmediately}},
		{"reserved type code", fakeFW{code: 0, states: 1, step: finishImmediately}},
		{"never reaches done", fakeFW{code: 92, states: 2,
			step: func(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
				// Spins between Start and state 1 forever; the probe's
				// transition budget must cut it off.
				return qei.FirmwareContinue(q, 1, false)
			}}},
		{"exception only", fakeFW{code: 93, states: 1,
			step: func(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
				return qei.FirmwareFail(errors.New("always fails"))
			}}},
		{"out of range op bytes", fakeFW{code: 94, states: 1,
			step: func(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
				return qei.FirmwareFinish(q, false, 0, qei.FirmwareMemRead(0, 1<<30))
			}}},
		{"panicking step", fakeFW{code: 95, states: 1,
			step: func(q *qei.FirmwareQuery, s qei.FirmwareState) qei.FirmwareRequest {
				panic("firmware bug")
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := qei.ValidateFirmware(tc.fw)
			if err == nil {
				t.Fatalf("ValidateFirmware accepted pathological firmware (%s)", tc.name)
			}
			if !errors.Is(err, qei.ErrFirmwareInvalid) {
				t.Fatalf("error does not wrap ErrFirmwareInvalid: %v", err)
			}
		})
	}
}

func TestRegisterFirmwareRejectsBuiltinCollision(t *testing.T) {
	sys := qei.NewSystem(qei.CoreIntegrated)
	// Type code 3 belongs to a built-in structure; firmware must not
	// silently shadow it even if otherwise well formed.
	err := sys.RegisterFirmware(fakeFW{code: 3, states: 1, step: finishImmediately})
	if err == nil {
		t.Fatal("RegisterFirmware accepted a type-code collision with a built-in")
	}
	if !errors.Is(err, qei.ErrFirmwareInvalid) {
		t.Fatalf("collision error does not wrap ErrFirmwareInvalid: %v", err)
	}
	// A duplicate registration of the same custom code must also fail.
	if err := sys.RegisterFirmware(fakeFW{code: 96, states: 1, step: finishImmediately}); err != nil {
		t.Fatalf("first registration of code 96 failed: %v", err)
	}
	err = sys.RegisterFirmware(fakeFW{code: 96, states: 1, step: finishImmediately})
	if !errors.Is(err, qei.ErrFirmwareInvalid) {
		t.Fatalf("duplicate registration error does not wrap ErrFirmwareInvalid: %v", err)
	}
}
