// Package lpmfw is the IPv4 longest-prefix-match firmware from the
// lpm_router example, split into an importable package so tests (and
// other programs) can register or validate it without running the demo.
// See examples/lpm_router for the full walkthrough, node layout, and a
// host-side reference implementation.
//
// The structure is a binary trie over address bits. Each 32-byte node:
//
//	offset 0:  child[0] pointer (8 B)
//	offset 8:  child[1] pointer (8 B)
//	offset 16: next-hop value (8 B)
//	offset 24: has-route flag (8 B)
//
// A lookup walks one bit per level, remembering the deepest node with a
// route — the longest matching prefix. Unlike the built-in exact-match
// CFAs, the result is a best-effort match, which the firmware tracks in
// the QST scratch fields.
package lpmfw

import (
	"encoding/binary"
	"fmt"

	"qei"
)

// TypeCode is the header type byte the LPM firmware claims.
const TypeCode uint8 = 40

// lpmWalk is the single walking state.
const lpmWalk qei.FirmwareState = 1

// Firmware is the CFA for the binary LPM trie.
type Firmware struct{}

// TypeCode implements qei.Firmware.
func (Firmware) TypeCode() uint8 { return TypeCode }

// Name implements qei.Firmware.
func (Firmware) Name() string { return "lpm" }

// NumStates implements qei.Firmware.
func (Firmware) NumStates() int { return 2 }

// Step implements qei.Firmware.
func (Firmware) Step(q *qei.FirmwareQuery, state qei.FirmwareState) qei.FirmwareRequest {
	switch state {
	case qei.FirmwareStart:
		if q.Header.Type != TypeCode {
			return qei.FirmwareFail(fmt.Errorf("lpm firmware on %d header", q.Header.Type))
		}
		q.Node = q.Header.Root // current trie node
		q.Pos = 0              // bit position
		q.AltNode = 0          // best-match value so far (reuse scratch)
		q.Level = 0            // best-match valid flag
		return qei.FirmwareContinue(q, lpmWalk, true,
			qei.FirmwareMemRead(uint64(q.KeyAddr), 4),
			qei.FirmwareMemRead(uint64(q.Header.Root), 32))

	case lpmWalk:
		if q.Node == 0 || q.Pos >= 32 {
			return qei.FirmwareFinish(q, q.Level != 0, uint64(q.AltNode))
		}
		node := uint64(q.Node)
		// Functional read of the node.
		hasRoute, err := q.AS.ReadU64(q.Node + 24)
		if err != nil {
			return qei.FirmwareFail(err)
		}
		if hasRoute != 0 {
			v, err := q.AS.ReadU64(q.Node + 16)
			if err != nil {
				return qei.FirmwareFail(err)
			}
			q.AltNode = qei.Addr(v) // remember deepest route
			q.Level = 1
		}
		ip := binary.BigEndian.Uint32(q.Key[:4])
		bit := (ip >> (31 - q.Pos)) & 1
		childU, err := q.AS.ReadU64(q.Node + qei.Addr(8*bit))
		if err != nil {
			return qei.FirmwareFail(err)
		}
		q.Pos++
		q.Node = qei.Addr(childU)
		if q.Node == 0 {
			return qei.FirmwareFinish(q, q.Level != 0, uint64(q.AltNode),
				qei.FirmwareCompare(node, 8))
		}
		// One compare (the bit test) and the next node's line.
		return qei.FirmwareContinue(q, lpmWalk, false,
			qei.FirmwareCompare(node, 8),
			qei.FirmwareMemRead(uint64(q.Node), 32))

	default:
		return qei.FirmwareFail(fmt.Errorf("lpm: unknown state %d", state))
	}
}
