package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"approxcode/internal/store"
)

// workload is one traffic mix. Names are fixed; later issues cite them.
type workload struct {
	name string
	why  string
	// setup builds what the loaded run needs; its wall time is setup_s.
	setup func(cfg config) (*env, error)
	// load runs the warm-up and the timed section against e.
	load func(cfg config, e *env) (*loadResult, error)
	// traceSetup builds the environment of the fixed op list, traced
	// when tr is set; traceOps is that list.
	traceSetup func(cfg config, tr *tracer) (*env, error)
	traceOps   func(cfg config) []op
	// objectOp and segmentOp are the op kinds object_op_p50_us and
	// segment_op_p50_us report on this workload.
	objectOp, segmentOp opKind
	// timeBound is the bound -compare holds this workload's rates and
	// latencies to (metrics.go, timed).
	timeBound float64
}

var workloads = []*workload{
	{
		name: "ingest_durable",
		why:  "journal append+fsync, core encode and the gf256 kernels do most of the work; no reads, no sockets",
		setup: func(cfg config) (*env, error) {
			return &env{corpus: genCorpus(cfg.seed, cfg.ingestObjects)}, nil
		},
		load: loadIngest,
		traceSetup: func(cfg config, tr *tracer) (*env, error) {
			e, _, err := setupDurable(cfg, genCorpus(cfg.seed, traceIngestObjects(cfg)), tr)
			return e, err
		},
		traceOps: traceOpsIngest,
		objectOp: opPut, segmentOp: opUpdate,
		timeBound: 0.15,
	},
	{
		name: "playback_mem",
		why:  "healthy in-process reads never decode: read planning, CRC verify, memIO copies, the tier cache and GC; codec and journal bypassed",
		setup: func(cfg config) (*env, error) {
			return setupMem(cfg, cfg.playbackObjects, cfg.cacheBytes, true, nil)
		},
		load: loadPlayback,
		traceSetup: func(cfg config, tr *tracer) (*env, error) {
			return setupMem(cfg, cfg.playbackObjects, cfg.cacheBytes, true, tr)
		},
		traceOps: func(cfg config) []op {
			return playbackOps(newRNG(cfg.seed, "playback_mem/trace"), cfg.playbackObjects, cfg.tracePicks)
		},
		objectOp: opGet, segmentOp: opGetSegment,
		timeBound: 0.15,
	},
	{
		name: "degraded_repair",
		why:  "the paper's headline path: core reconstruct, read plans, plan cache and gf256 mul-add dominate; no sockets, no journal",
		setup: func(cfg config) (*env, error) {
			return setupMem(cfg, cfg.degradedObjects, 0, false, nil)
		},
		load: loadDegraded,
		traceSetup: func(cfg config, tr *tracer) (*env, error) {
			return setupMem(cfg, cfg.degradedObjects, 0, false, tr)
		},
		traceOps: traceOpsDegraded,
		objectOp: opGet, segmentOp: opGetSegment,
		timeBound: 0.15,
	},
	{
		name: "tcp_mixed",
		why:  "the only path through frame encode/decode, the connection pool, sockets and FileBackend; writes sit beside reads",
		setup: func(cfg config) (*env, error) {
			return setupTCP(cfg, cfg.tcpObjects, nil)
		},
		load: loadTCP,
		traceSetup: func(cfg config, tr *tracer) (*env, error) {
			return setupTCP(cfg, cfg.tcpObjects, tr)
		},
		traceOps: func(cfg config) []op {
			r := newRNG(cfg.seed, "tcp_mixed/trace")
			z := newZipf(cfg.tcpObjects, zipfExponent)
			var ops []op
			for i := 0; i < cfg.traceIters; i++ {
				ops = appendTCPIteration(ops, r, z, fmt.Sprintf("new-trace-%d", i))
			}
			return ops
		},
		objectOp: opGet, segmentOp: opGetSegment,
		timeBound: 0.25,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadResult is what a loaded run hands back.
type loadResult struct {
	rec *recorder
	// opsRates / mbpsRates hold one rate per window, epoch or cycle;
	// the reported rate is their median.
	opsRates, mbpsRates []float64
	// counters are the store's obs counter deltas over the timed
	// section; clientCounters the netio.Client's (tcp_mixed).
	counters       counterSnap
	clientCounters counterSnap
	rt             runtimeDelta
	// storedBytes / storedUser give storage_overhead after preload.
	storedBytes, storedUser int64
	// layer carries workload-specific per-layer values.
	layer metricSet
	// flagged lists the segment ids of one object the final phase of
	// degraded_repair saw flagged Approximate (the video probe's input).
	flagged []int
}

// measureStored fills storage_overhead's inputs from the env.
func (res *loadResult) measureStored(e *env, userBytes int64) error {
	stored, err := e.stored()
	if err != nil {
		return err
	}
	res.storedBytes, res.storedUser = stored, userBytes
	return nil
}

// pacer paces a workload made of whole epochs or cycles: those that
// start inside the warm-up are not measured, and the run ends before the
// first one that would start after the timed section is over, once at
// least one has been measured.
type pacer struct {
	cfg                 config
	start, measuredFrom time.Time
	rt                  *runtimeMark // taken when measuring starts
}

func newPacer(cfg config) *pacer { return &pacer{cfg: cfg, start: time.Now()} }

// next reports whether the round about to start is measured and whether
// there is one at all; done is the number of measured rounds so far.
func (p *pacer) next(done int) (measured, more bool) {
	if time.Since(p.start) < p.cfg.warmup {
		return false, true
	}
	if p.measuredFrom.IsZero() {
		p.measuredFrom = time.Now()
		p.rt = startRuntime()
	}
	return true, done == 0 || time.Since(p.measuredFrom) < p.cfg.seconds
}

// rateWindow is the bucket width of the free-running workloads' rates.
const rateWindow = time.Second

// runFree runs a free-running closed loop: warm-up, then the timed
// section, body once per iteration per client until time is up.
func runFree(cfg config, e *env, name string, body func(c *client)) (*loadResult, error) {
	res := &loadResult{layer: metricSet{}}
	if err := res.measureStored(e, e.corpus.bytes); err != nil {
		return nil, err
	}
	clients := newClients(cfg, e, name)
	loop := func(c *client, stop func() bool) {
		for !stop() {
			body(c)
		}
	}
	setRecorders(clients, 0, 0)
	runClients(clients, cfg.warmup, loop)

	before := snapStore(e)
	clientBefore := snapCounters(e.clientObs, clientCounterNames)
	rt := startRuntime()
	window := min(rateWindow, cfg.seconds)
	recs := setRecorders(clients, window, cfg.seconds)
	runClients(clients, cfg.seconds, loop)
	res.rt = rt.stop()
	res.counters = snapStore(e).sub(before)
	res.clientCounters = snapCounters(e.clientObs, clientCounterNames).sub(clientBefore)
	res.rec = mergeRecorders(recs)
	res.opsRates, res.mbpsRates = res.rec.windowRates()
	return res, nil
}

// playbackPick is one playback decision: an object by Zipf(1.1), then
// one GOP as 30 consecutive GetSegments, every tenth pick a whole Get.
func playbackPick(ops []op, r *rng, z *zipf, pick int) []op {
	obj := z.pick(r)
	if pick%10 == 9 {
		return append(ops, op{Kind: opGet, Obj: obj})
	}
	return appendGOPRun(ops, obj, r.intn(gopsPerObject))
}

func playbackOps(r *rng, objects, picks int) []op {
	z := newZipf(objects, zipfExponent)
	var ops []op
	for p := 0; p < picks; p++ {
		ops = playbackPick(ops, r, z, p)
	}
	return ops
}

func loadPlayback(cfg config, e *env) (*loadResult, error) {
	z := newZipf(len(e.corpus.objects), zipfExponent)
	picks := make([]int, cfg.clients)
	scratch := make([][]op, cfg.clients)
	res, err := runFree(cfg, e, "playback_mem", func(c *client) {
		scratch[c.id] = playbackPick(scratch[c.id][:0], c.rng, z, picks[c.id])
		picks[c.id]++
		for _, o := range scratch[c.id] {
			c.do(o)
		}
	})
	if err != nil {
		return nil, err
	}
	res.layer["tier.migrate_mbps"] = ratio(float64(e.migrateBytes)/1e6, e.migrateSeconds)
	return res, nil
}

// appendTCPIteration is one tcp_mixed client iteration: 1 Put of a new
// object, 3 whole-object Gets, 2 GOP runs of 30 GetSegments. The new
// object reuses a corpus object's bytes under a fresh name (the store
// does not deduplicate), so generating it costs the loop nothing.
func appendTCPIteration(ops []op, r *rng, z *zipf, newName string) []op {
	ops = append(ops, op{Kind: opPut, Obj: r.intn(len(z.cdf)), Name: newName})
	for i := 0; i < 3; i++ {
		ops = append(ops, op{Kind: opGet, Obj: z.pick(r)})
	}
	for i := 0; i < 2; i++ {
		ops = appendGOPRun(ops, z.pick(r), r.intn(gopsPerObject))
	}
	return ops
}

func loadTCP(cfg config, e *env) (*loadResult, error) {
	z := newZipf(len(e.corpus.objects), zipfExponent)
	iter := make([]int, cfg.clients)
	scratch := make([][]op, cfg.clients)
	puts := make([][]op, cfg.clients) // acknowledged new objects, per client
	res, err := runFree(cfg, e, "tcp_mixed", func(c *client) {
		name := fmt.Sprintf("new-%d-%d", c.id, iter[c.id])
		iter[c.id]++
		scratch[c.id] = appendTCPIteration(scratch[c.id][:0], c.rng, z, name)
		for _, o := range scratch[c.id] {
			failed := c.rec.failed
			c.do(o)
			if o.Kind == opPut && c.rec.failed == failed {
				puts[c.id] = append(puts[c.id], o)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Every acknowledged new object must read back byte-exact.
	v := &client{env: e, rec: newRecorder(0, 0)}
	for _, list := range puts {
		for _, o := range list {
			v.get(o.Name, e.corpus.objects[o.Obj])
		}
	}
	res.rec.absorbVerify(v.rec)
	return res, nil
}

// absorbVerify folds a verification pass's failures into the run's
// account without counting its reads as measured ops.
func (r *recorder) absorbVerify(v *recorder) {
	r.failed += v.failed
	r.mismatches += v.mismatches
	r.approx += v.approx
	if r.firstFail == nil {
		r.firstFail = v.firstFail
	}
}

// verifyCorpus Gets the given corpus objects and checks every byte.
func verifyCorpus(e *env, idx []int, allowApprox bool) *recorder {
	v := &client{env: e, rec: newRecorder(0, 0), allowApprox: allowApprox}
	for _, i := range idx {
		o := e.corpus.objects[i]
		v.get(o.name, o)
	}
	return v.rec
}

func allObjects(e *env) []int {
	idx := make([]int, len(e.corpus.objects))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ---- ingest_durable ----

// updateEvery is the ingest mix: one UpdateSegment per four Puts.
const updateEvery = 4

func traceIngestObjects(cfg config) int { return max(cfg.ingestObjects/4, 4) }

// ingestOps is one client's share of an epoch: its objects in order,
// and after every fourth Put an UpdateSegment on an object it has
// already had acknowledged.
func ingestOps(r *rng, objects, clientID, clients int) []op {
	var ops []op
	var mine []int
	for i := clientID; i < objects; i += clients {
		ops = append(ops, op{Kind: opPut, Obj: i})
		mine = append(mine, i)
		if len(mine)%updateEvery == 0 {
			ops = append(ops, op{Kind: opUpdate, Obj: mine[r.intn(len(mine))], Seg: r.intn(segsPerObject)})
		}
	}
	return ops
}

func traceOpsIngest(cfg config) []op {
	return ingestOps(newRNG(cfg.seed, "ingest_durable/trace"), traceIngestObjects(cfg), 0, 1)
}

// loadIngest runs epochs of: fresh directory → OpenDurable → Put the
// corpus with updates → Close. Epochs that start inside the warm-up are
// not measured. After the last epoch the directory is recovered — a
// replay of the whole journal — every acknowledged object is verified
// byte-exact, and the recovered store is saved once. Save is not part of
// the epoch: one snapshot writes and fsyncs more than twice the bytes of
// the epoch's Puts, took three quarters of the epoch and varied 3x from
// epoch to epoch on this sandbox's disk, which buried the ingest path
// the workload exists to measure.
func loadIngest(cfg config, e *env) (*loadResult, error) {
	res := &loadResult{layer: metricSet{}, counters: counterSnap{}}
	var recs []*recorder
	var keep *env
	var keepDir string
	defer func() {
		if keep != nil {
			_ = keep.close()
		}
	}()
	pace := newPacer(cfg)
	for epoch := 0; ; epoch++ {
		measured, more := pace.next(len(res.opsRates))
		if !more {
			break
		}
		if keep != nil {
			if err := keep.close(); err != nil {
				return nil, err
			}
		}
		epochStart := time.Now()
		ee, dir, err := setupDurable(cfg, e.corpus, nil)
		if err != nil {
			return nil, err
		}
		keep, keepDir = ee, dir
		clients := newClients(cfg, ee, fmt.Sprintf("ingest_durable/epoch/%d", epoch))
		epochRecs := setRecorders(clients, 0, 0)
		runClients(clients, 0, func(c *client, _ func() bool) {
			for _, o := range ingestOps(c.rng, len(e.corpus.objects), c.id, cfg.clients) {
				c.do(o)
			}
		})
		if err := ee.st.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		seconds := time.Since(epochStart).Seconds()
		if !measured {
			continue
		}
		rec := mergeRecorders(epochRecs)
		recs = append(recs, rec)
		res.opsRates = append(res.opsRates, float64(rec.ops)/seconds)
		res.mbpsRates = append(res.mbpsRates, float64(rec.userBytes)/1e6/seconds)
		res.counters.add(snapStore(ee))
		res.storedBytes, res.storedUser = ee.st.Stats().StoredBytes, e.corpus.bytes
	}
	res.rt = pace.rt.stop()
	res.rec = mergeRecorders(recs)

	recoverStart := time.Now()
	st, _, err := store.Recover(keepDir, store.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	res.layer["store.recover_s"] = time.Since(recoverStart).Seconds()
	keep.st = st
	res.rec.absorbVerify(verifyCorpus(keep, allObjects(keep), false))
	saveStart := time.Now()
	if err := st.Save(keepDir); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	res.layer["store.save_mbps"] = float64(st.Stats().StoredBytes) / 1e6 / time.Since(saveStart).Seconds()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close recovered store: %w", err)
	}
	return res, nil
}

// fsyncProbe times write+fsync of a Put-record-sized buffer in the
// directory the journals live in: what the device charges the journal
// per unbatched Put.
func fsyncProbe(cfg config, size int64) (float64, error) {
	dir, err := cfg.tmpDir("fsync")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(dir + "/probe")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, size)
	newRNG(cfg.seed, "fsync").fill(buf)
	var us []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// ---- degraded_repair ----

// degradedReads is one client's reads of a degraded cycle: getSegs
// GetSegments as GOP runs with gets whole-object Gets spread between
// them.
func degradedReads(cfg config, cycle, clientID, getSegs, gets int) []op {
	r := newRNG(cfg.seed, fmt.Sprintf("degraded_repair/cycle/%d/client/%d", cycle, clientID))
	z := newZipf(cfg.degradedObjects, zipfExponent)
	var ops []op
	every := max(getSegs/max(gets, 1), 1)
	for n := 0; n < getSegs; {
		run := appendGOPRun(nil, z.pick(r), r.intn(gopsPerObject))
		if n+len(run) > getSegs {
			run = run[:getSegs-n]
		}
		if n/every != (n+len(run))/every && gets > 0 {
			ops = append(ops, op{Kind: opGet, Obj: z.pick(r)})
			gets--
		}
		ops = append(ops, run...)
		n += len(run)
	}
	return ops
}

// traceOpsDegraded is one whole cycle at a tenth of the reads: fail the
// cycle's node pair, read, RepairAll.
func traceOpsDegraded(cfg config) []op {
	a, b := failedPair(geo, cfg.seed, 0)
	ops := []op{{Kind: opFail, Obj: a, Seg: b}}
	ops = append(ops, degradedReads(cfg, 0, 0, cfg.cycleGetSegs/10, max(cfg.cycleGets/10, 1))...)
	return append(ops, op{Kind: opRepair})
}

// loadDegraded runs cycles of: fail one data node of the important
// group and one of an unimportant group → degraded reads → RepairAll →
// verify. Rates are per whole cycle (fail + reads + repair): an operator
// serving reads while the cluster recovers sees both. After the last
// cycle, once and destructively: two data nodes of one unimportant group
// plus one of group 0 fail (r+g on the important tier), everything is
// read, and every segment must be exact or — unimportant only — flagged.
func loadDegraded(cfg config, e *env) (*loadResult, error) {
	res := &loadResult{layer: metricSet{}, counters: counterSnap{}}
	if err := res.measureStored(e, e.corpus.bytes); err != nil {
		return nil, err
	}
	clients := newClients(cfg, e, "degraded_repair")
	coord := &client{env: e}
	var recs []*recorder
	var repairMBps, repairAmp, stripesPerS []float64
	pace := newPacer(cfg)
	for cycle := 0; ; cycle++ {
		measured, more := pace.next(len(res.opsRates))
		if !more {
			break
		}
		before := snapStore(e)
		cycleRecs := setRecorders(clients, 0, 0)
		coord.rec = newRecorder(0, 0)
		cycleStart := time.Now()
		a, b := failedPair(geo, cfg.seed, cycle)
		coord.do(op{Kind: opFail, Obj: a, Seg: b})
		runClients(clients, 0, func(c *client, _ func() bool) {
			for _, o := range degradedReads(cfg, cycle, c.id, cfg.cycleGetSegs/cfg.clients, cfg.cycleGets/cfg.clients) {
				c.do(o)
			}
		})
		rep, repairTime := coord.repair()
		seconds := time.Since(cycleStart).Seconds()
		if n := len(e.st.FailedNodes()); n != 0 {
			coord.rec.mismatch(fmt.Errorf("cycle %d: %d nodes still failed after repair", cycle, n))
		}
		delta := snapStore(e).sub(before)
		// The byte check after each repair reads a seeded sample; the
		// whole corpus is checked once after the last cycle.
		sample := newRNG(cfg.seed, fmt.Sprintf("degraded_repair/verify/%d", cycle))
		var idx []int
		for i := 0; i < cfg.cycleVerify; i++ {
			idx = append(idx, sample.intn(len(e.corpus.objects)))
		}
		coord.rec.absorbVerify(verifyCorpus(e, idx, false))
		if !measured {
			if coord.rec.failed > 0 {
				return nil, fmt.Errorf("warm-up cycle %d: %w", cycle, coord.rec.firstFail)
			}
			continue
		}
		rec := mergeRecorders(append(cycleRecs, coord.rec))
		recs = append(recs, rec)
		res.opsRates = append(res.opsRates, float64(rec.ops)/seconds)
		res.mbpsRates = append(res.mbpsRates, float64(rec.userBytes)/1e6/seconds)
		res.counters.add(delta)
		if rep != nil {
			repairMBps = append(repairMBps, float64(rep.BytesRebuilt)/1e6/repairTime.Seconds())
			repairAmp = append(repairAmp, ratio(float64(rep.BytesRead), float64(rep.BytesRebuilt)))
			stripesPerS = append(stripesPerS, float64(rep.StripesRepaired)/repairTime.Seconds())
		}
	}
	res.rt = pace.rt.stop()
	res.rec = mergeRecorders(recs)
	res.layer["store.repair_mbps"] = median(repairMBps)
	res.layer["store.repair_read_amp"] = median(repairAmp)
	res.layer["store.repair_stripes_per_s"] = median(stripesPerS)
	res.rec.absorbVerify(verifyCorpus(e, allObjects(e), false))

	// Final phase, destructive.
	r := newRNG(cfg.seed, "degraded_repair/final")
	group := 1 + r.intn(geo.code.H-1)
	j := r.intn(geo.code.K)
	failed := []int{geo.dataNode(group, j), geo.dataNode(group, (j+1)%geo.code.K), geo.dataNode(0, r.intn(geo.code.K))}
	if err := e.st.FailNodes(failed...); err != nil {
		return nil, fmt.Errorf("final phase: %w", err)
	}
	final := verifyCorpus(e, allObjects(e), true)
	res.rec.absorbVerify(final)
	res.layer["store.approx_share"] = ratio(float64(final.approx), float64(final.segsRead))
	if _, rep, err := e.st.Get(e.corpus.objects[0].name); err == nil {
		res.flagged = append(res.flagged, rep.Approximate...)
		sort.Ints(res.flagged)
	}
	return res, nil
}
