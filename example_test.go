package qei_test

import (
	"fmt"

	"qei"
)

// Example demonstrates the library's core flow: build a structure in the
// simulated machine, query it through the accelerator, inspect stats.
func Example() {
	sys := qei.NewSystem(qei.CoreIntegrated)

	keys := [][]byte{
		[]byte("flow-0000-abcdef"),
		[]byte("flow-0001-abcdef"),
		[]byte("flow-0002-abcdef"),
	}
	values := []uint64{100, 200, 300}
	table, err := sys.Build(qei.KindCuckoo, keys, values)
	if err != nil {
		panic(err)
	}

	res, err := sys.Query(table, keys[1])
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Found, res.Value)

	miss, _ := sys.Query(table, []byte("flow-9999-abcdef"))
	fmt.Println(miss.Found)

	// Output:
	// true 200
	// false
}

// Example_firmware shows the runtime firmware-extension path with a
// one-entry structure: the header's type code selects the custom CFA.
func Example_firmware() {
	sys := qei.NewSystem(qei.CoreIntegrated)
	if err := sys.RegisterFirmware(singleCell{}); err != nil {
		panic(err)
	}
	body := make([]byte, 8)
	body[0] = 42
	root := sys.Write(body)
	table, err := sys.WriteTableHeader("cell", 77, root, 1, 1, 0, 0)
	if err != nil {
		panic(err)
	}
	res, err := sys.Query(table, []byte{42})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Found, res.Value)
	// Output:
	// true 42
}

// singleCell is the smallest possible firmware: one stored byte, one
// comparison.
type singleCell struct{}

func (singleCell) TypeCode() uint8 { return 77 }
func (singleCell) Name() string    { return "cell" }
func (singleCell) NumStates() int  { return 2 }

func (singleCell) Step(q *qei.FirmwareQuery, state qei.FirmwareState) qei.FirmwareRequest {
	const check qei.FirmwareState = 1
	switch state {
	case qei.FirmwareStart:
		return qei.FirmwareContinue(q, check, true,
			qei.FirmwareMemRead(uint64(q.KeyAddr), 1),
			qei.FirmwareMemRead(uint64(q.Header.Root), 1))
	case check:
		stored := make([]byte, 1)
		if err := q.AS.Read(q.Header.Root, stored); err != nil {
			return qei.FirmwareFail(err)
		}
		cmp := qei.FirmwareCompare(uint64(q.Header.Root), 1)
		if stored[0] == q.Key[0] {
			return qei.FirmwareFinish(q, true, uint64(stored[0]), cmp)
		}
		return qei.FirmwareFinish(q, false, 0, cmp)
	default:
		return qei.FirmwareFail(fmt.Errorf("cell: bad state %d", state))
	}
}
