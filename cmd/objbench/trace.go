package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// The traced run records spans from this package only, around its
// calls into the library: workload → round → {setup, warmup, measure,
// verify, direct, prims}, and one op span per sampled Ops.Do call
// inside a traced measure phase. With -trace-out, spans stay in memory
// and are written at exit as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it offline); the op spans kept for it add to
// the live heap of later rounds.

type span struct {
	id, parent int
	name       string
	lane       int // one lane (Chrome pid) per workload
	start, end int64
	traced     bool // a measure phase that recorded op spans
}

type opSpan struct {
	start, end int64
	op         uint8
}

// opBuf is one worker's op spans for one traced phase. Its capacity is
// fixed before the first round, so recording never allocates in the
// timed loop.
type opBuf struct {
	parent, lane, worker int
	spans                []opSpan
}

// minOpTime is a floor on one worker's time per op: the fastest
// workloads take about 100 ns. It sizes the op-span buffers; a faster
// op stream stops recording at the cap.
const minOpTime = 50 * time.Nanosecond

// tracer collects spans; a nil tracer records nothing.
type tracer struct {
	spans []span
	// work holds one op-span buffer per worker of each lane, allocated
	// here and reused by every traced phase, so every round's gc.*
	// metrics run under the same live heap.
	work [][]*opBuf
	// keep (-trace-out) makes keepOps save a compact copy of each
	// traced phase's op spans for write.
	keep bool
	kept []opBuf
}

// newTracer allocates the op-span buffers of lanes' workers for traced
// phases of length window.
func newTracer(lanes []*spec, nproc int, window time.Duration, keep bool) *tracer {
	t := &tracer{keep: keep}
	capacity := int(window/(spanEvery*minOpTime)) + 1
	for lane, s := range lanes {
		var bufs []*opBuf
		for w := range s.workers(nproc) {
			bufs = append(bufs, &opBuf{lane: lane, worker: w, spans: make([]opSpan, 0, capacity)})
		}
		t.work = append(t.work, bufs)
	}
	return t
}

func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, start: now()})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].end = now()
	}
}

// opBuffers empties lane's op-span buffers for a traced phase under the
// measure span parent, or returns nil when not tracing.
func (t *tracer) opBuffers(parent, lane int) []*opBuf {
	if t == nil {
		return nil
	}
	t.spans[parent-1].traced = true
	for _, b := range t.work[lane] {
		b.parent, b.spans = parent, b.spans[:0]
	}
	return t.work[lane]
}

// keepOps saves the op spans a traced phase recorded into bufs, when
// they are to be written.
func (t *tracer) keepOps(bufs []*opBuf) {
	if t == nil || !t.keep {
		return
	}
	for _, b := range bufs {
		c := *b
		c.spans = slices.Clone(b.spans)
		t.kept = append(t.kept, c)
	}
}

// opName names an op code of a set or a container.
func opName(set bool, op uint8) string {
	if set {
		return [...]string{"add", "remove", "contains"}[op]
	}
	return [...]string{"push", "pop"}[op]
}

// write emits the spans as Chrome trace events: complete ("X") events
// with microsecond timestamps, the coordinator on tid 0 and worker w on
// tid w+1. lanes names each lane's workload.
func (t *tracer) write(path string, lanes []*spec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	sep := ""
	for i, s := range lanes {
		fmt.Fprintf(w, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%q}}", sep, i+1, s.name)
		sep = ",\n"
	}
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s{\"name\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"id\":%d,\"parent\":%d,\"traced\":%t}}",
			sep, s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.lane+1, s.id, s.parent, s.traced)
		sep = ",\n"
	}
	for _, b := range t.kept {
		set := lanes[b.lane].set
		for _, o := range b.spans {
			fmt.Fprintf(w, "%s{\"name\":\"op\",\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"parent\":%d}}",
				sep, opName(set, o.op), float64(o.start)/1e3, float64(o.end-o.start)/1e3, b.lane+1, b.worker+1, b.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
