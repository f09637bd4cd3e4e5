package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/netpoll"
	"icilk/internal/netreal"
)

// Tracing is done entirely from benchmark code, around calls into
// the layers: the server is handed a connection and a batcher that
// time the calls passing through them, and client-side stamps come
// from the phase record. Nothing inside the program is instrumented.

// span is one traced interval. Spans of one request share req; parent
// is an index into the same list, -1 at a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // ns after the traced phase began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"` // conn<<32 | per-connection request ordinal, or the schedule index
}

// Connection events, in the order one connection emits them.
const (
	evTryRead uint8 = iota // [t0,t1] n = bytes returned
	evArm                  // t0: ArmRead registered the readiness callback
	evFired                // t0: the callback ran (on an I/O handler thread)
	evWrite                // [t0,t1] n = bytes; the server writes once per reply
	evFlush                // [t0,t1]
)

type connEvent struct {
	kind   uint8
	n      int32
	t0, t1 int64
}

type batchEvent struct {
	t0, t1 int64
	fns    int32
}

// connTracer interposes on the two interfaces the benchmark itself
// hands to the server: memcached.Conn and netpoll.Batcher. While off
// it forwards with one atomic load of overhead.
type connTracer struct {
	inner netpoll.Batcher
	on    atomic.Bool
	epoch time.Time // set when tracing turns on

	mu      sync.Mutex
	conns   []*tracedConn
	batches []batchEvent
}

func newConnTracer(inner netpoll.Batcher) *connTracer { return &connTracer{inner: inner} }

// start turns tracing on; epoch is the traced phase's start, so the
// connection spans share the client spans' clock.
func (t *connTracer) start(epoch time.Time) {
	t.epoch = epoch
	t.on.Store(true)
}

func (t *connTracer) stop() { t.on.Store(false) }

func (t *connTracer) now() int64 { return int64(time.Since(t.epoch)) }

// SubmitBatch implements netpoll.Batcher around the runtime's pool.
func (t *connTracer) SubmitBatch(fns []func()) {
	if !t.on.Load() {
		t.inner.SubmitBatch(fns)
		return
	}
	t0 := t.now()
	t.inner.SubmitBatch(fns)
	t1 := t.now()
	t.mu.Lock()
	t.batches = append(t.batches, batchEvent{t0, t1, int32(len(fns))})
	t.mu.Unlock()
}

// tracedConn embeds *netreal.Conn so the capabilities the runtime and
// the server probe for (CompletesViaPool, Close) stay visible.
type tracedConn struct {
	*netreal.Conn
	t  *connTracer
	mu sync.Mutex // the readiness callback runs on another thread
	ev []connEvent
}

func (t *connTracer) wrap(c *netreal.Conn) *tracedConn {
	tc := &tracedConn{Conn: c, t: t}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc
}

func (c *tracedConn) add(e connEvent) {
	c.mu.Lock()
	c.ev = append(c.ev, e)
	c.mu.Unlock()
}

func (c *tracedConn) TryRead(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.TryRead(p)
	}
	t0 := c.t.now()
	n, err := c.Conn.TryRead(p)
	c.add(connEvent{evTryRead, int32(n), t0, c.t.now()})
	return n, err
}

func (c *tracedConn) ArmRead(fn func()) {
	if !c.t.on.Load() {
		c.Conn.ArmRead(fn)
		return
	}
	t0 := c.t.now()
	c.add(connEvent{evArm, 0, t0, t0})
	c.Conn.ArmRead(func() {
		if c.t.on.Load() {
			t := c.t.now()
			c.add(connEvent{evFired, 0, t, t})
		}
		fn()
	})
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := c.t.now()
	n, err := c.Conn.Write(p)
	c.add(connEvent{evWrite, int32(n), t0, c.t.now()})
	return n, err
}

func (c *tracedConn) Flush() error {
	if !c.t.on.Load() {
		return c.Conn.Flush()
	}
	t0 := c.t.now()
	err := c.Conn.Flush()
	c.add(connEvent{evFlush, 0, t0, c.t.now()})
	return err
}

// traceDigest is what a traced phase boils down to: the span list and
// per-span-name duration samples (ns) the layer metrics are read from.
type traceDigest struct {
	spans   []span
	samples map[string][]int64
	// reqSelf is memcached.serve self time divided over the replies
	// written in that serve period, one sample per period.
	reqSelf []int64
}

func (d *traceDigest) add(name string, start, end int64, parent int, req int64) int {
	d.spans = append(d.spans, span{name, start, end, parent, req})
	d.samples[name] = append(d.samples[name], end-start)
	return len(d.spans) - 1
}

// digest turns the raw events into spans. On each connection a
// "memcached.serve" period runs from the return of the TryRead that
// delivered request bytes to the end of the Flush that releases the
// replies; every netreal call in between is its child, and what is
// left is the handler's own parse-and-execute time.
func (t *connTracer) digest(d *traceDigest) {
	for ci, c := range t.conns {
		c.mu.Lock()
		ev := c.ev
		c.mu.Unlock()
		serve, replies := -1, 0 // open serve span index, replies written in it
		var childNS, armed, fired int64
		reqOrd := int64(0)
		req := func() int64 { return int64(ci)<<32 | reqOrd }
		open := func(at int64) {
			serve, replies, childNS = d.add("memcached.serve", at, at, -1, req()), 0, 0
		}
		closeServe := func(at int64) {
			s := &d.spans[serve]
			s.End = at
			dur := at - s.Start
			smp := d.samples["memcached.serve"]
			smp[len(smp)-1] = dur
			if replies > 0 {
				d.reqSelf = append(d.reqSelf, (dur-childNS)/int64(replies))
			}
			serve = -1
		}
		child := func(name string, e connEvent) {
			d.add(name, e.t0, e.t1, serve, req())
			if serve >= 0 {
				childNS += e.t1 - e.t0
			}
		}
		for _, e := range ev {
			switch e.kind {
			case evTryRead:
				if fired != 0 {
					d.add("sched.io_resume", fired, e.t0, -1, req())
					fired = 0
				}
				child("netreal.try_read", e)
				if serve < 0 && e.n > 0 {
					open(e.t1)
				}
			case evWrite:
				if serve < 0 {
					open(e.t0) // replies continuing after a mid-batch yield
				}
				child("netreal.write", e)
				replies++
				reqOrd++
			case evFlush:
				child("netreal.flush", e)
				if serve >= 0 {
					closeServe(e.t1)
				}
			case evArm:
				armed = e.t0
			case evFired:
				if armed != 0 {
					d.add("netreal.ready_wait", armed, e.t0, -1, req())
					armed = 0
				}
				fired = e.t0
			}
		}
	}
	for _, b := range t.batches {
		d.add("iopool.submit_batch", b.t0, b.t1, -1, int64(b.fns))
	}
}

// clientSpans adds each request's client-side view: due -> sent ->
// done, plus (sched_mixed) the task body stamps.
func clientSpans(d *traceDigest, rec *phaseRec) {
	for i := range rec.ph.ops {
		done := rec.done[i].Load()
		if done <= 0 {
			continue
		}
		due, sent := rec.ph.ops[i].due, rec.sent[i]
		root := d.add("client.request", due, done, -1, int64(i))
		d.add("client.due_to_sent", due, sent, root, int64(i))
		d.add("client.send_to_done", sent, done, root, int64(i))
		if rec.run != nil {
			run, ret := rec.run[i].Load(), rec.ret[i].Load()
			if run > 0 && ret > 0 {
				d.add("sched.submit_to_run", sent, run, root, int64(i))
				d.add("parallel.reduce", run, ret, root, int64(i))
			}
		}
	}
}

// maxSpansWritten caps the trace file; the metrics use every span.
const maxSpansWritten = 200_000

// writeTrace writes the spans of the traced phase's first stretch: if
// there are more than maxSpansWritten, those that started before the
// time at which that many had. A parent starts no later than its
// children, so every kept span keeps its parent.
func writeTrace(path string, workload string, d *traceDigest) error {
	out := struct {
		Workload  string `json:"workload"`
		Total     int    `json:"spans_total"`
		Truncated bool   `json:"truncated"`
		Spans     []span `json:"spans"`
	}{Workload: workload, Total: len(d.spans), Spans: d.spans}
	if len(d.spans) > maxSpansWritten {
		starts := make([]int64, len(d.spans))
		for i := range d.spans {
			starts[i] = d.spans[i].Start
		}
		slices.Sort(starts)
		cutoff := starts[maxSpansWritten-1]
		newIndex := make([]int, len(d.spans))
		out.Spans, out.Truncated = nil, true
		for i, sp := range d.spans {
			newIndex[i] = -1
			if sp.Start > cutoff || (sp.Parent >= 0 && newIndex[sp.Parent] < 0) {
				continue
			}
			if sp.Parent >= 0 {
				sp.Parent = newIndex[sp.Parent]
			}
			newIndex[i] = len(out.Spans)
			out.Spans = append(out.Spans, sp)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *traceDigest) p50(name string) float64 { return float64(pctOf(d.samples[name], 50)) }
func (d *traceDigest) p99(name string) float64 { return float64(pctOf(d.samples[name], 99)) }

func pctOf(xs []int64, p float64) int64 {
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return percentile(s, p)
}
