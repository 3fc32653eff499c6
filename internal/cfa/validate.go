package cfa

import (
	"errors"
	"fmt"
)

// ErrInvalidProgram is the sentinel behind every firmware rejection:
// static-constraint violations, registry type-code collisions, and
// failures of the deep validation probe all wrap it, so callers can
// errors.Is a single error across the whole validation surface.
var ErrInvalidProgram = errors.New("cfa: invalid firmware program")

// MaxOpBytes bounds the Bytes field of a single micro-op. The QST data
// field stages at most a handful of cachelines per transition; an op
// claiming more is firmware nonsense, and the engine rejects it before
// the per-line accounting loop would spin over the claimed range.
const MaxOpBytes = 1 << 24

// ValidateProgramDeep runs the full firmware admission pass used by
// RegisterFirmware: the static checks of ValidateProgram, then a
// behavioral probe proving the program can actually reach FirmwareDone
// within hardware bounds. The program is explored over probe queries —
// a miniature instance of the structure for a built-in type code, a
// minimal synthetic one-element structure otherwise (see probeQueries)
// — under every walk guard, and its state graph validated. Every
// rejection wraps ErrInvalidProgram.
func ValidateProgramDeep(p Program) error {
	if err := ValidateProgram(p); err != nil {
		return err
	}
	qs, _ := probeQueries(p)
	g, err := explore(p, qs)
	if err != nil {
		return fmt.Errorf("%w: exploration of %q failed: %v", ErrInvalidProgram, p.Name(), err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProgram, err)
	}
	return nil
}
