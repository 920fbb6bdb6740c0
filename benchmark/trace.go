package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxcode/internal/chaos"
)

// Tracing lives entirely in the benchmark: a root span around each store
// call, child spans from a pass-through at the chaos.NodeIO boundary,
// grandchild spans from a pass-through around each server's backend.
// Spans inside the program are a later issue.

const (
	layerStore   = "store"
	layerNodeIO  = "nodeio"
	layerBackend = "backend"
)

// span is one timed interval. Spans of one store call share Op.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root
	Op     int32  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. The traced run has a
// single client, so one store span is open at a time and a nodeio span
// belongs to it; a backend span belongs to the nodeio span opened last.
// A nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	ops     int32
	curRoot int32 // open store span
	curIO   int32 // nodeio span opened last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	sp := span{ID: id, Layer: layer, Name: name, Start: now}
	switch layer {
	case layerStore:
		t.ops++
		t.curRoot = id
	case layerNodeIO:
		sp.Parent = t.curRoot
		t.curIO = id
	case layerBackend:
		sp.Parent = t.curIO
	}
	sp.Op = t.ops
	t.spans = append(t.spans, sp)
	return id
}

func (t *tracer) end(id int32, bytes int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
	if t.curRoot == id {
		t.curRoot = 0
	}
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the traced preload's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.ops, t.curRoot, t.curIO = nil, 0, 0, 0
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON, one file per workload.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// covered is the length of the union of the intervals, clipped to
// [lo,hi]. It sorts iv.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// opCost splits one store call's span: self is the span minus the union
// of its nodeio children (planning, CRC, packing, and on a durable store
// the journal), nodeio that union; wire and backend split the nodeio
// spans again on tcp_mixed (nodeio span minus, and equal to, its backend
// children).
type opCost struct {
	name                               string
	total, self, nodeio, wire, backend int64
	rpcs                               int
}

// opCosts computes one opCost per root span.
func (t *tracer) opCosts() []opCost {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	union := func(parent span) int64 {
		var iv [][2]int64
		for _, id := range children[parent.ID] {
			c := t.spans[id-1]
			iv = append(iv, [2]int64{c.Start, c.End})
		}
		return covered(iv, parent.Start, parent.End)
	}
	var out []opCost
	for _, root := range t.spans {
		if root.Layer != layerStore {
			continue
		}
		c := opCost{name: root.Name, total: root.End - root.Start}
		c.nodeio = union(root)
		c.self = c.total - c.nodeio
		for _, id := range children[root.ID] {
			io := t.spans[id-1]
			c.rpcs++
			b := union(io)
			c.backend += b
			c.wire += io.End - io.Start - b
		}
		out = append(out, c)
	}
	return out
}

// budget is the cost of the typical call of one op kind: the mean split
// over the calls whose total lies between the 40th and 60th percentile,
// so the parts sum to (nearly) the traced median.
type budget struct {
	n                                         int
	median, self, nodeio, wire, backend, rpcs float64 // µs, calls
}

func budgets(costs []opCost) map[string]budget {
	byName := make(map[string][]opCost)
	for _, c := range costs {
		byName[c.name] = append(byName[c.name], c)
	}
	out := make(map[string]budget, len(byName))
	for name, cs := range byName {
		sort.Slice(cs, func(i, j int) bool { return cs[i].total < cs[j].total })
		b := budget{n: len(cs), median: float64(cs[(len(cs)-1)/2].total) / 1e3}
		band := cs[len(cs)*2/5 : max(len(cs)*3/5, len(cs)*2/5+1)]
		for _, c := range band {
			b.self += float64(c.self)
			b.nodeio += float64(c.nodeio)
			b.wire += float64(c.wire)
			b.backend += float64(c.backend)
			b.rpcs += float64(c.rpcs)
		}
		k := float64(len(band)) * 1e3
		b.self, b.nodeio, b.wire, b.backend = b.self/k, b.nodeio/k, b.wire/k, b.backend/k
		b.rpcs /= float64(len(band))
		out[name] = b
	}
	return out
}

// layerDurations returns the durations of one layer's spans, by name.
func (t *tracer) layerDurations(layer string) map[string]samples {
	out := make(map[string]samples)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Layer == layer {
			out[sp.Name] = append(out[sp.Name], sp.End-sp.Start)
		}
	}
	return out
}

// ioCounts is what a pass-through counts, tracing on or off.
type ioCounts struct {
	readCalls, readAtCalls, writeCalls atomic.Int64
	readBytes, writeBytes              atomic.Int64
	busyNS                             atomic.Int64
	inFlight, maxInFlight              atomic.Int64
}

// ioSnap is a reading of ioCounts.
type ioSnap struct {
	readCalls, readAtCalls, writeCalls int64
	readBytes, writeBytes              int64
	busyNS, maxInFlight                int64
}

// snapshot reads the counters; nil counters (no pass-through) read zero.
func (c *ioCounts) snapshot() ioSnap {
	if c == nil {
		return ioSnap{}
	}
	return ioSnap{
		readCalls: c.readCalls.Load(), readAtCalls: c.readAtCalls.Load(), writeCalls: c.writeCalls.Load(),
		readBytes: c.readBytes.Load(), writeBytes: c.writeBytes.Load(),
		busyNS: c.busyNS.Load(), maxInFlight: c.maxInFlight.Load(),
	}
}

// sub returns the traffic since b; maxInFlight is a high-water mark and
// stays as read.
func (s ioSnap) sub(b ioSnap) ioSnap {
	s.readCalls -= b.readCalls
	s.readAtCalls -= b.readAtCalls
	s.writeCalls -= b.writeCalls
	s.readBytes -= b.readBytes
	s.writeBytes -= b.writeBytes
	s.busyNS -= b.busyNS
	return s
}

// tap is the timing pass-through at a chaos.NodeIO boundary. The store
// discovers partial reads and cancellation by type assertion, so newTap
// returns a wrapper exposing chaos.PartialReader and chaos.CtxIO only
// when the inner has them: a tap that always had them would hide the
// store's silent fall-back to whole-column reads.
type tap struct {
	inner chaos.NodeIO
	pr    chaos.PartialReader // nil when the inner has no partial reads
	cio   chaos.CtxIO         // nil when the inner takes no context
	layer string
	tr    *tracer
	c     *ioCounts
}

func newTap(inner chaos.NodeIO, layer string, tr *tracer) (chaos.NodeIO, *ioCounts) {
	c := &ioCounts{}
	return newTapCounting(inner, layer, tr, c), c
}

// newTapCounting is newTap with shared counters (the four backends of
// tcp_mixed count as one layer).
func newTapCounting(inner chaos.NodeIO, layer string, tr *tracer, c *ioCounts) chaos.NodeIO {
	t := &tap{inner: inner, layer: layer, tr: tr, c: c}
	t.pr, _ = inner.(chaos.PartialReader)
	t.cio, _ = inner.(chaos.CtxIO)
	switch {
	case t.pr != nil && t.cio != nil:
		return tapPartialCtx{tapCtx{t}}
	case t.cio != nil:
		return tapCtx{t}
	case t.pr != nil:
		return tapPartial{t}
	default:
		return t
	}
}

func (t *tap) begin(name string) (int32, time.Time) {
	n := t.c.inFlight.Add(1)
	for {
		m := t.c.maxInFlight.Load()
		if n <= m || t.c.maxInFlight.CompareAndSwap(m, n) {
			break
		}
	}
	return t.tr.begin(t.layer, name), time.Now()
}

// finish accounts one call the way the store's own counters do: every
// attempt is a call, only successful ones move bytes.
func (t *tap) finish(id int32, start time.Time, calls, bytes *atomic.Int64, n int, err error) {
	t.c.busyNS.Add(int64(time.Since(start)))
	t.tr.end(id, n)
	t.c.inFlight.Add(-1)
	calls.Add(1)
	if err == nil {
		bytes.Add(int64(n))
	}
}

func (t *tap) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	id, start := t.begin("read")
	data, err := t.inner.ReadColumn(node, object, stripe)
	t.finish(id, start, &t.c.readCalls, &t.c.readBytes, len(data), err)
	return data, err
}

func (t *tap) WriteColumn(node int, object string, stripe int, data []byte) error {
	id, start := t.begin("write")
	err := t.inner.WriteColumn(node, object, stripe, data)
	t.finish(id, start, &t.c.writeCalls, &t.c.writeBytes, len(data), err)
	return err
}

func (t *tap) readAt(node int, object string, stripe, off, n int) ([]byte, error) {
	id, start := t.begin("readat")
	data, err := t.pr.ReadColumnAt(node, object, stripe, off, n)
	t.finish(id, start, &t.c.readAtCalls, &t.c.readBytes, len(data), err)
	return data, err
}

type tapPartial struct{ *tap }

func (t tapPartial) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return t.readAt(node, object, stripe, off, n)
}

type tapCtx struct{ *tap }

func (t tapCtx) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	id, start := t.begin("read")
	data, err := t.cio.ReadColumnCtx(ctx, node, object, stripe)
	t.finish(id, start, &t.c.readCalls, &t.c.readBytes, len(data), err)
	return data, err
}

func (t tapCtx) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	id, start := t.begin("readat")
	data, err := t.cio.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	t.finish(id, start, &t.c.readAtCalls, &t.c.readBytes, len(data), err)
	return data, err
}

func (t tapCtx) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	id, start := t.begin("write")
	err := t.cio.WriteColumnCtx(ctx, node, object, stripe, data)
	t.finish(id, start, &t.c.writeCalls, &t.c.writeBytes, len(data), err)
	return err
}

// tapPartialCtx has both extensions (a netio.Client does).
type tapPartialCtx struct{ tapCtx }

func (t tapPartialCtx) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return t.readAt(node, object, stripe, off, n)
}
