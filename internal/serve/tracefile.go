package serve

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// Recorded-trace format: JSON Lines. The first line is a header carrying
// the format version and the full GenConfig (so a replay can rebuild the
// tenant tables the stream probes); every following line is one request
// in arrival order. The format is append-friendly and greppable:
//
//	{"v":1,"gen":{"tenants":4,...}}
//	{"seq":0,"tenant":0,"at":93,"key":"00000000000000010a0b..."}
//	{"seq":1,"tenant":2,"at":118,"key":"..."}

// traceVersion is the current trace-format version.
const traceVersion = 1

type traceHeader struct {
	Version int       `json:"v"`
	Gen     GenConfig `json:"gen"`
}

type traceRec struct {
	Seq    int    `json:"seq"`
	Tenant int    `json:"tenant"`
	At     uint64 `json:"at"`
	Key    string `json:"key"`
	// Op and Value are omitted for lookups, so read-only traces are
	// byte-identical to the pre-write format (still version 1).
	Op    string `json:"op,omitempty"`
	Value uint64 `json:"value,omitempty"`
}

// WriteTrace records a generated stream as JSONL: header line, then one
// line per request in stream order.
func WriteTrace(w io.Writer, cfg GenConfig, reqs []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Version: traceVersion, Gen: cfg}); err != nil {
		return err
	}
	for i := range reqs {
		r := &reqs[i]
		rec := traceRec{Seq: r.Seq, Tenant: r.Tenant, At: r.At, Key: hex.EncodeToString(r.Key),
			Op: string(r.Op), Value: r.Value}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a recorded JSONL trace back into the config and
// request stream WriteTrace saved. The returned stream replays
// byte-identically to the live generated run it recorded.
func ReadTrace(r io.Reader) (GenConfig, []Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return GenConfig{}, nil, err
		}
		return GenConfig{}, nil, fmt.Errorf("serve: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return GenConfig{}, nil, fmt.Errorf("serve: trace header: %w", err)
	}
	if hdr.Version != traceVersion {
		return GenConfig{}, nil, fmt.Errorf("serve: trace version %d, want %d", hdr.Version, traceVersion)
	}
	var reqs []Request
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec traceRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return GenConfig{}, nil, fmt.Errorf("serve: trace line %d: %w", line, err)
		}
		// Results are filed by Seq, so a record out of place would
		// misfile or drop another request's result.
		if rec.Seq != len(reqs) {
			return GenConfig{}, nil, fmt.Errorf("serve: trace line %d: seq %d, want %d", line, rec.Seq, len(reqs))
		}
		key, err := hex.DecodeString(rec.Key)
		if err != nil {
			return GenConfig{}, nil, fmt.Errorf("serve: trace line %d key: %w", line, err)
		}
		switch Op(rec.Op) {
		case OpGet, OpPut, OpDel:
		default:
			return GenConfig{}, nil, fmt.Errorf("serve: trace line %d: unknown op %q", line, rec.Op)
		}
		reqs = append(reqs, Request{Seq: rec.Seq, Tenant: rec.Tenant, At: rec.At, Key: key,
			Op: Op(rec.Op), Value: rec.Value})
	}
	if err := sc.Err(); err != nil {
		return GenConfig{}, nil, err
	}
	return hdr.Gen, reqs, nil
}
