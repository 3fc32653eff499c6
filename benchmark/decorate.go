package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"qei"
	"qei/internal/machine"
	"qei/internal/serve"
	"qei/internal/workload"
)

// call names one entry point the benchmark times from outside the
// program. The part of its name before the first dot is its layer.
type call int

const (
	callBuild call = iota
	callInsert
	callDelete
	callQueryAsync
	callPoll
	callWait
	callQueryBatch
	callQuery
	callFailoverQuery
	callServeRun
	callRunBaseline
	callRunQEI
	numCalls
)

var callNames = [numCalls]string{
	callBuild:         "dstruct.build",
	callInsert:        "dstruct.insert",
	callDelete:        "dstruct.delete",
	callQueryAsync:    "qei.query_async",
	callPoll:          "qei.poll",
	callWait:          "qei.wait",
	callQueryBatch:    "qei.query_batch",
	callQuery:         "qei.query",
	callFailoverQuery: "baseline.query",
	callServeRun:      "serve.run",
	callRunBaseline:   "workload.run_baseline",
	callRunQEI:        "workload.run_qei",
}

func (c call) layer() string {
	l, _, _ := strings.Cut(callNames[c], ".")
	return l
}

// callStat accumulates one entry point's calls: total host time, and
// self time (total minus the timed calls made inside it).
type callStat struct {
	calls  uint64
	ns     int64
	selfNs int64
}

// span is one recorded call: host nanoseconds since the recorder
// started, the enclosing span (-1 for none), and the request number it
// served (the async handle number for QueryAsync and its Wait).
type span struct {
	call       call
	start, end int64
	parent     int32
	id         uint64
}

// maxSpans bounds the spans one recorder keeps; the counts and times in
// stats stay exact beyond it.
const maxSpans = 1 << 16

// recorder collects what the decorators see during one pass. Untraced,
// it times only the Build calls and the top-level calls the pass makes,
// so that set-up can be split from the timed work. Traced, it times
// every backend call, keeps spans in memory, and counts polls.
type recorder struct {
	traced bool
	t0     time.Time
	stats  [numCalls]callStat
	spans  []span
	// dropped counts spans not kept past maxSpans.
	dropped uint64
	// open is the innermost open top-level span (-1 for none) and
	// openChild the time of the calls recorded inside it so far.
	open      int32
	openCall  call
	openStart int64
	openChild int64
	nextID    uint64
	// pending counts polls that found the query still running; full
	// counts QueryAsync calls refused because every QST entry was busy.
	pending uint64
	full    uint64
	// buildAlloc is the heap allocated inside Build calls, so it can be
	// taken out of the timed phase's allocation count.
	buildAlloc uint64
	// mutables are the updatable tables the pass built.
	mutables []*qei.MutableTable
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, t0: time.Now(), open: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) newID() uint64 {
	r.nextID++
	return r.nextID
}

// record books one finished leaf call.
func (r *recorder) record(c call, start int64, id uint64) {
	end := r.now()
	d := end - start
	st := &r.stats[c]
	st.calls++
	st.ns += d
	st.selfNs += d
	r.openChild += d
	if r.traced {
		r.keep(span{call: c, start: start, end: end, parent: r.open, id: id})
	}
}

func (r *recorder) keep(s span) int32 {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// enter opens a top-level call made by the pass itself (serve.Run,
// RunBaseline, RunQEI); the decorated calls inside it become its
// children. Top-level calls do not nest.
func (r *recorder) enter(c call) {
	r.openCall, r.openStart, r.openChild = c, r.now(), 0
	r.open = -1
	if r.traced {
		r.open = r.keep(span{call: c, start: r.openStart, parent: -1})
	}
}

// exit closes the open top-level call and returns its duration.
func (r *recorder) exit() time.Duration {
	end := r.now()
	d := end - r.openStart
	st := &r.stats[r.openCall]
	st.calls++
	st.ns += d
	st.selfNs += d - r.openChild
	if r.open >= 0 {
		r.spans[r.open].end = end
	}
	r.open, r.openChild = -1, 0
	return time.Duration(d)
}

// timeBuild runs one table build, booking its time and allocation in
// both modes.
func (r *recorder) timeBuild(build func() error) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := r.now()
	err := build()
	r.record(callBuild, start, 0)
	runtime.ReadMemStats(&ms)
	r.buildAlloc += ms.TotalAlloc - before
	return err
}

// selfNs sums the self time of every call of the given layer.
func (r *recorder) selfNs(layer string) int64 {
	var ns int64
	for c := call(0); c < numCalls; c++ {
		if c.layer() == layer {
			ns += r.stats[c].selfNs
		}
	}
	return ns
}

// writeChromeTrace writes the kept spans as a Chrome trace-event
// document (chrome://tracing, Perfetto) with the self time per layer in
// otherData. Times are host microseconds from the start of the pass.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"id":%d,"parent":%d}}`,
			callNames[s.call], s.call.layer(), float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{")
	for i, l := range []string{"serve", "qei", "baseline", "dstruct", "workload"} {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `"self_ns.%s":%d`, l, r.selfNs(l))
	}
	fmt.Fprintf(bw, `,"poll_calls":%d,"poll_ns":%d,"dropped_spans":%d}}`+"\n",
		r.stats[callPoll].calls, r.stats[callPoll].ns, r.dropped)
	return bw.Flush()
}

// decorate wraps a serving backend so the recorder sees its calls. The
// wrapper has exactly the optional interfaces (serve.BatchBackend,
// serve.Mutator) the wrapped backend has, so serve.Run takes the same
// paths through it. query is the call that Query is booked as: the
// accelerator's or the failover walker's.
func decorate(b serve.Backend, r *recorder, query call) serve.Backend {
	tb := &timedBackend{Backend: b, rec: r, query: query}
	bb, batch := b.(serve.BatchBackend)
	m, mut := b.(serve.Mutator)
	switch {
	case batch && mut:
		return struct {
			*timedBackend
			*timedBatch
			*timedMutator
		}{tb, &timedBatch{bb, r}, &timedMutator{m, r}}
	case batch:
		return struct {
			*timedBackend
			*timedBatch
		}{tb, &timedBatch{bb, r}}
	case mut:
		return struct {
			*timedBackend
			*timedMutator
		}{tb, &timedMutator{m, r}}
	}
	return tb
}

// handle is a traced async handle: the backend's own plus its number.
type handle struct {
	h  serve.Handle
	id uint64
}

type timedBackend struct {
	serve.Backend
	rec   *recorder
	query call
}

func (b *timedBackend) Build(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	var t serve.Table
	err := b.rec.timeBuild(func() (err error) {
		t, err = b.Backend.Build(kind, keys, values)
		return err
	})
	return t, err
}

func (b *timedBackend) Query(t serve.Table, key []byte) (serve.Result, error) {
	if !b.rec.traced {
		return b.Backend.Query(t, key)
	}
	start := b.rec.now()
	res, err := b.Backend.Query(t, key)
	b.rec.record(b.query, start, b.rec.newID())
	return res, err
}

func (b *timedBackend) QueryAsync(t serve.Table, key []byte) (serve.Handle, error) {
	if !b.rec.traced {
		return b.Backend.QueryAsync(t, key)
	}
	start := b.rec.now()
	h, err := b.Backend.QueryAsync(t, key)
	if err != nil {
		if errors.Is(err, serve.ErrBackendFull) {
			b.rec.full++
		}
		b.rec.record(callQueryAsync, start, 0)
		return h, err
	}
	id := b.rec.newID()
	b.rec.record(callQueryAsync, start, id)
	return handle{h, id}, nil
}

// Poll runs once per queued query per arrival, so it is counted and
// timed but kept as no span.
func (b *timedBackend) Poll(h serve.Handle) (serve.Result, error) {
	if !b.rec.traced {
		return b.Backend.Poll(h)
	}
	start := b.rec.now()
	res, err := b.Backend.Poll(h.(handle).h)
	d := b.rec.now() - start
	st := &b.rec.stats[callPoll]
	st.calls++
	st.ns += d
	st.selfNs += d
	b.rec.openChild += d
	if errors.Is(err, serve.ErrPending) {
		b.rec.pending++
	}
	return res, err
}

func (b *timedBackend) Wait(h serve.Handle) (serve.Result, error) {
	if !b.rec.traced {
		return b.Backend.Wait(h)
	}
	th := h.(handle)
	start := b.rec.now()
	res, err := b.Backend.Wait(th.h)
	b.rec.record(callWait, start, th.id)
	return res, err
}

type timedBatch struct {
	bb  serve.BatchBackend
	rec *recorder
}

func (b *timedBatch) QueryBatch(t serve.Table, keys [][]byte) ([]serve.Result, error) {
	if !b.rec.traced {
		return b.bb.QueryBatch(t, keys)
	}
	start := b.rec.now()
	rs, err := b.bb.QueryBatch(t, keys)
	b.rec.record(callQueryBatch, start, b.rec.newID())
	return rs, err
}

type timedMutator struct {
	m   serve.Mutator
	rec *recorder
}

func (m *timedMutator) BuildMutable(kind string, keys [][]byte, values []uint64) (serve.Table, error) {
	var t serve.Table
	err := m.rec.timeBuild(func() (err error) {
		t, err = m.m.BuildMutable(kind, keys, values)
		return err
	})
	if mt, ok := t.(*qei.MutableTable); ok {
		m.rec.mutables = append(m.rec.mutables, mt)
	}
	return t, err
}

func (m *timedMutator) Insert(t serve.Table, key []byte, value uint64) error {
	if !m.rec.traced {
		return m.m.Insert(t, key, value)
	}
	start := m.rec.now()
	err := m.m.Insert(t, key, value)
	m.rec.record(callInsert, start, 0)
	return err
}

func (m *timedMutator) Delete(t serve.Table, key []byte) (bool, error) {
	if !m.rec.traced {
		return m.m.Delete(t, key)
	}
	start := m.rec.now()
	ok, err := m.m.Delete(t, key)
	m.rec.record(callDelete, start, 0)
	return ok, err
}

// timedBench wraps a paper benchmark so the recorder times its Build,
// which RunBaseline and RunQEI call on a fresh machine per cell.
type timedBench struct {
	workload.Benchmark
	rec *recorder
	// requests is the measured request count of the last plan built.
	requests int
}

func (b *timedBench) Build(m *machine.Machine) (*workload.Plan, error) {
	var plan *workload.Plan
	err := b.rec.timeBuild(func() (err error) {
		plan, err = b.Benchmark.Build(m)
		return err
	})
	if plan != nil {
		b.requests = len(plan.Requests)
	}
	return plan, err
}
