package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// recorder is one client's account of the ops it issued. Clients never
// share one; merge pools them after the run.
type recorder struct {
	lat     [numOpKinds]samples
	tierLat [3]samples // GetSegment latency by the object's pinned tier

	ops, userBytes int64
	// failed counts errors, refusals (ErrOverloaded) and wrong replies;
	// mismatches is the silently-wrong subset, which fails the command.
	failed, mismatches int64
	// approx / segsRead feed approx_share: segments a Get flagged
	// Approximate over segments read.
	approx, segsRead int64

	// Free-running workloads bucket completions into windows of the
	// timed section; rates are the median over windows.
	t0        time.Time
	window    time.Duration
	winOps    []int64
	winBytes  []int64
	firstFail error
}

// newRecorder starts a record now; window > 0 buckets completions into
// total/window windows.
func newRecorder(window, total time.Duration) *recorder {
	r := &recorder{t0: time.Now(), window: window}
	if window > 0 {
		n := int(total / window)
		r.winOps, r.winBytes = make([]int64, n), make([]int64, n)
	}
	return r
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstFail == nil {
		r.firstFail = err
	}
}

func (r *recorder) mismatch(err error) {
	r.mismatches++
	r.fail(err)
}

// done accounts one completed op.
func (r *recorder) done(kind opKind, end time.Time, d time.Duration, userBytes int64) {
	r.lat[kind] = append(r.lat[kind], int64(d))
	r.ops++
	r.userBytes += userBytes
	if r.window > 0 {
		if w := int(end.Sub(r.t0) / r.window); w >= 0 && w < len(r.winOps) {
			r.winOps[w]++
			r.winBytes[w] += userBytes
		}
	}
}

func mergeRecorders(rs []*recorder) *recorder {
	m := &recorder{}
	for _, r := range rs {
		m.t0, m.window = r.t0, r.window
		for k := range r.lat {
			m.lat[k] = append(m.lat[k], r.lat[k]...)
		}
		for k := range r.tierLat {
			m.tierLat[k] = append(m.tierLat[k], r.tierLat[k]...)
		}
		m.ops += r.ops
		m.userBytes += r.userBytes
		m.failed += r.failed
		m.mismatches += r.mismatches
		m.approx += r.approx
		m.segsRead += r.segsRead
		if m.winOps == nil {
			m.winOps, m.winBytes = make([]int64, len(r.winOps)), make([]int64, len(r.winBytes))
		}
		for w := range r.winOps {
			m.winOps[w] += r.winOps[w]
			m.winBytes[w] += r.winBytes[w]
		}
		if m.firstFail == nil {
			m.firstFail = r.firstFail
		}
	}
	return m
}

// windowRates returns the per-window op and MB/s rates.
func (r *recorder) windowRates() (ops, mbps []float64) {
	s := r.window.Seconds()
	for w := range r.winOps {
		ops = append(ops, float64(r.winOps[w])/s)
		mbps = append(mbps, float64(r.winBytes[w])/1e6/s)
	}
	return ops, mbps
}

// client issues ops against one env. Every reply is checked against the
// corpus bytes outside the timed span.
type client struct {
	id  int
	env *env
	rec *recorder
	rng *rng
	// allowApprox admits Approximate flags on unimportant segments (the
	// destructive final phase of degraded_repair); elsewhere any flag is
	// a failure.
	allowApprox bool
}

// spanName is the root span name of an op kind.
var spanName = [numOpKinds]string{"store.Put", "store.UpdateSegment", "store.Get", "store.GetSegment", "store.RepairAll", ""}

// put stores the object's segments under name.
func (c *client) put(name string, o *object) {
	id := c.env.tr.begin(layerStore, spanName[opPut])
	start := time.Now()
	err := c.env.st.Put(name, o.segs)
	end := time.Now()
	c.env.tr.end(id, int(o.bytes))
	if err != nil {
		c.rec.fail(fmt.Errorf("put %s: %w", name, err))
		return
	}
	c.rec.done(opPut, end, end.Sub(start), o.bytes)
}

// update overwrites one segment with fresh bytes of the same length and
// records them as the object's expected content. The caller owns o: no
// other client reads or writes it.
func (c *client) update(o *object, seg int) {
	data := make([]byte, len(o.segs[seg].Data))
	c.rng.fill(data)
	id := c.env.tr.begin(layerStore, spanName[opUpdate])
	start := time.Now()
	err := c.env.st.UpdateSegment(o.name, seg, data)
	end := time.Now()
	c.env.tr.end(id, len(data))
	if err != nil {
		c.rec.fail(fmt.Errorf("update %s/%d: %w", o.name, seg, err))
		return
	}
	o.segs[seg].Data = data
	c.rec.done(opUpdate, end, end.Sub(start), int64(len(data)))
}

// get reads the whole object stored under name and checks it against o.
func (c *client) get(name string, o *object) {
	id := c.env.tr.begin(layerStore, spanName[opGet])
	start := time.Now()
	segs, rep, err := c.env.st.Get(name)
	end := time.Now()
	c.env.tr.end(id, int(o.bytes))
	if err != nil {
		c.rec.fail(fmt.Errorf("get %s: %w", name, err))
		return
	}
	c.rec.done(opGet, end, end.Sub(start), o.bytes)
	c.checkObject(name, o, segs, rep)
}

// checkObject is the exact-or-flagged gate: every segment is byte-exact,
// or it is unimportant, listed in Approximate, and this client allows it.
func (c *client) checkObject(name string, o *object, segs []store.Segment, rep *store.GetReport) {
	if len(segs) != len(o.segs) {
		c.rec.mismatch(fmt.Errorf("get %s: %d segments, want %d", name, len(segs), len(o.segs)))
		return
	}
	flagged := make(map[int]bool, len(rep.Approximate))
	for _, id := range rep.Approximate {
		flagged[id] = true
	}
	c.rec.segsRead += int64(len(segs))
	c.rec.approx += int64(len(rep.Approximate))
	if len(rep.LostSegments) != len(rep.Approximate) {
		c.rec.mismatch(fmt.Errorf("get %s: important segments lost: %v", name, rep.LostSegments))
		return
	}
	for i, got := range segs {
		want := o.segs[i]
		switch {
		case got.ID != want.ID:
			c.rec.mismatch(fmt.Errorf("get %s: segment %d has id %d", name, want.ID, got.ID))
			return
		case flagged[got.ID]:
			if !c.allowApprox || want.Important {
				c.rec.mismatch(fmt.Errorf("get %s: segment %d flagged approximate", name, got.ID))
				return
			}
		case !bytes.Equal(got.Data, want.Data):
			c.rec.mismatch(fmt.Errorf("get %s: segment %d differs from the source and is not flagged", name, got.ID))
			return
		}
	}
}

// getSegment reads one segment of corpus object obj and checks it.
func (c *client) getSegment(obj, seg int) {
	o := c.env.corpus.objects[obj]
	id := c.env.tr.begin(layerStore, spanName[opGetSegment])
	start := time.Now()
	got, err := c.env.st.GetSegment(o.name, seg)
	end := time.Now()
	c.env.tr.end(id, len(got.Data))
	if err != nil {
		c.rec.fail(fmt.Errorf("getsegment %s/%d: %w", o.name, seg, err))
		return
	}
	d := end.Sub(start)
	c.rec.done(opGetSegment, end, d, int64(len(got.Data)))
	if c.env.tiers != nil {
		c.rec.tierLat[c.env.tiers[obj]] = append(c.rec.tierLat[c.env.tiers[obj]], int64(d))
	}
	c.rec.segsRead++
	if !bytes.Equal(got.Data, o.segs[seg].Data) {
		c.rec.mismatch(fmt.Errorf("getsegment %s/%d differs from the source", o.name, seg))
	}
}

// repair runs RepairAll and returns its report.
func (c *client) repair() (*store.RepairReport, time.Duration) {
	id := c.env.tr.begin(layerStore, spanName[opRepair])
	start := time.Now()
	rep, err := c.env.st.RepairAll()
	end := time.Now()
	d := end.Sub(start)
	if err != nil {
		c.env.tr.end(id, 0)
		c.rec.fail(fmt.Errorf("repair: %w", err))
		return nil, d
	}
	c.env.tr.end(id, int(rep.BytesRebuilt))
	c.rec.lat[opRepair] = append(c.rec.lat[opRepair], int64(d))
	if len(rep.LostSegments) > 0 || rep.StripesSkipped > 0 {
		c.rec.mismatch(fmt.Errorf("repair within tolerance lost segments of %d objects, skipped %d stripes",
			len(rep.LostSegments), rep.StripesSkipped))
	}
	return rep, d
}

// do issues one op of a fixed list.
func (c *client) do(o op) {
	var obj *object
	if o.Kind != opFail && o.Kind != opRepair {
		obj = c.env.corpus.objects[o.Obj]
	}
	switch o.Kind {
	case opPut:
		c.put(o.name(obj), obj)
	case opUpdate:
		c.update(obj, o.Seg)
	case opGet:
		c.get(obj.name, obj)
	case opGetSegment:
		c.getSegment(o.Obj, o.Seg)
	case opRepair:
		c.repair()
	case opFail:
		if err := c.env.st.FailNodes(o.Obj, o.Seg); err != nil {
			c.rec.fail(fmt.Errorf("fail nodes %d,%d: %w", o.Obj, o.Seg, err))
		}
	}
}

// runClients runs body on one goroutine per client and waits. stop
// reports that d has passed; with d = 0 the body runs a fixed list and
// stop never fires.
func runClients(clients []*client, d time.Duration, body func(c *client, stop func() bool)) {
	var done atomic.Bool
	if d > 0 {
		timer := time.AfterFunc(d, func() { done.Store(true) })
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			body(c, done.Load)
		}(c)
	}
	wg.Wait()
}

// newClients makes n clients on env with seeded, independent op streams.
func newClients(cfg config, e *env, workload string) []*client {
	cs := make([]*client, cfg.clients)
	for i := range cs {
		cs[i] = &client{id: i, env: e, rng: newRNG(cfg.seed, fmt.Sprintf("%s/client/%d", workload, i))}
	}
	return cs
}

// setRecorders gives every client a fresh recorder and returns them.
func setRecorders(cs []*client, window, total time.Duration) []*recorder {
	rs := make([]*recorder, len(cs))
	for i, c := range cs {
		rs[i] = newRecorder(window, total)
		c.rec = rs[i]
	}
	return rs
}

// errSilentMismatch marks a run whose store returned wrong bytes without
// flagging them; the command exits non-zero on it.
var errSilentMismatch = errors.New("store returned wrong bytes without flagging them")

// tierMetric names the per-tier GetSegment median of each pinned tier.
var tierMetric = map[tier.Level]string{
	tier.Hot:  "tier.hot_getseg_p50_us",
	tier.Warm: "tier.warm_getseg_p50_us",
	tier.Cold: "tier.cold_getseg_p50_us",
}
