package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"approxcode/internal/obs"
)

// counterSnap is a reading of named obs counters.
type counterSnap map[string]int64

// storeCounterNames are the store counters the benchmark reads (the
// store counts NodeIO calls and bytes itself, on every I/O path, so the
// untraced run needs no pass-through).
var storeCounterNames = []string{
	"store_node_read_attempts_total", "store_node_write_attempts_total",
	"store_node_read_bytes_total", "store_node_write_bytes_total",
	"store_partial_reads_total", "store_plan_fallbacks_total",
	"store_degraded_sub_reads_total",
	"store_retries_total", "store_hedges_total",
	"store_checksum_demotions_total", "store_overloaded_total",
	"store_journal_batches_total", "store_journal_records_total", "store_journal_batch_bytes_total",
	"store_cache_hits_total", "store_cache_misses_total", "store_cache_evictions_total",
}

var clientCounterNames = []string{
	"netio_client_read_total", "netio_client_readat_total", "netio_client_write_total",
	"netio_client_read_bytes_total", "netio_client_readat_bytes_total", "netio_client_write_bytes_total",
	"netio_client_retries_total", "netio_client_hedged_reads_total", "netio_client_dials_total",
}

// snapCounters reads the named counters; a nil registry reads all zero.
func snapCounters(reg *obs.Registry, names []string) counterSnap {
	s := make(counterSnap, len(names))
	if reg == nil {
		return s
	}
	for _, n := range names {
		s[n] = reg.Counter(n).Value()
	}
	return s
}

// snapStore reads the store's counters, and with them the decode-plan
// cache of the store's own code (core.plancache_hit_share).
func snapStore(e *env) counterSnap {
	s := snapCounters(e.st.Obs(), storeCounterNames)
	pc := e.st.Code().PlanCacheStats()
	s[planCacheHits], s[planCacheMisses] = int64(pc.Hits), int64(pc.Misses)
	return s
}

const planCacheHits, planCacheMisses = "plan_cache_hits", "plan_cache_misses"

func (s counterSnap) sub(b counterSnap) counterSnap {
	out := make(counterSnap, len(s))
	for k, v := range s {
		out[k] = v - b[k]
	}
	return out
}

func (s counterSnap) add(b counterSnap) {
	for k, v := range b {
		s[k] += v
	}
}

// nodeBytes is the NodeIO traffic in the snapshot.
func (s counterSnap) nodeBytes() int64 {
	return s["store_node_read_bytes_total"] + s["store_node_write_bytes_total"]
}

// runtimeMark / runtimeDelta bracket the timed section with the Go
// runtime's own accounting.
type runtimeMark struct {
	mem        runtime.MemStats
	gcCPU, cpu float64
}

type runtimeDelta struct {
	mallocs, allocBytes uint64
	gcCPUShare          float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

func startRuntime() *runtimeMark {
	m := &runtimeMark{}
	runtime.ReadMemStats(&m.mem)
	m.gcCPU, m.cpu = readCPU()
	return m
}

func (m *runtimeMark) stop() runtimeDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	gc, cpu := readCPU()
	return runtimeDelta{
		mallocs:    now.Mallocs - m.mem.Mallocs,
		allocBytes: now.TotalAlloc - m.mem.TotalAlloc,
		gcCPUShare: ratio(gc-m.gcCPU, cpu-m.cpu),
	}
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

// result is one workload's run: what the contract's JSON line carries,
// plus the sample counts behind the medians. PerLayer always holds what
// the loaded run feeds (the gates among it); the traced list's and the
// probes' entries read 0 unless Traced.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Traced    bool                   `json:"traced"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Samples   map[string]int         `json:"samples,omitempty"`
	FirstFail string                 `json:"first_failure,omitempty"`
}

// runWorkload runs one workload once. End-to-end numbers come from the
// untraced loaded run; with cfg.trace the fixed op list then runs twice,
// untraced and traced, and the probes run, for the per-layer numbers.
func runWorkload(w *workload, cfg config, log io.Writer) (*result, error) {
	m := metricSet{}
	samplesN := map[string]int{}
	if cfg.trace {
		// Before any store is resident, so every workload sees the same heap.
		if err := directProbes(cfg, m); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	// Set-up, cfg.setups times; the last environment is the one loaded.
	var e *env
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if e != nil {
			_ = e.close()
		}
	}()
	m["setup_s"] = median(setupS)
	samplesN["setup_s"] = len(setupS)

	res, err := w.load(cfg, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	e = nil
	rec := res.rec

	m["ops_per_s"] = median(res.opsRates)
	m["user_mbps"] = median(res.mbpsRates)
	samplesN["ops_per_s"], samplesN["user_mbps"] = len(res.opsRates), len(res.mbpsRates)
	m["object_op_p50_us"] = rec.lat[w.objectOp].quantile(0.5)
	m["segment_op_p50_us"] = rec.lat[w.segmentOp].quantile(0.5)
	samplesN["object_op_p50_us"], samplesN["segment_op_p50_us"] = len(rec.lat[w.objectOp]), len(rec.lat[w.segmentOp])
	m["storage_overhead"] = ratio(float64(res.storedBytes), float64(res.storedUser))
	m["io_amp"] = ratio(float64(res.counters.nodeBytes()), float64(rec.userBytes))

	out := &result{
		Workload:  w.name,
		Attempted: rec.ops + rec.failed,
		Failed:    rec.failed,
		Correct:   rec.mismatches == 0,
		Traced:    cfg.trace,
		Samples:   samplesN,
		EndToEnd:  m.report(endToEnd),
	}
	if rec.firstFail != nil {
		out.FirstFail = rec.firstFail.Error()
	}

	fillLoadedLayers(m, res, samplesN)
	if cfg.trace {
		if err := tracePhase(w, cfg, m, log); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		if err := workloadProbes(w, cfg, m, res); err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.name, err)
		}
		// One global stripe per Put on this geometry.
		m["core.encode_share_of_put"] = ratio(m["core.encode_us_per_stripe"], m["store.put_p50_us"])
	}
	out.PerLayer = m.report(perLayer)
	return out, nil
}

// fillLoadedLayers derives the per-layer metrics the loaded run feeds.
func fillLoadedLayers(m metricSet, res *loadResult, samplesN map[string]int) {
	rec, c := res.rec, res.counters
	for _, k := range []opKind{opPut, opUpdate, opGet, opGetSegment} {
		if len(rec.lat[k]) == 0 {
			continue
		}
		m["store."+opNames[k]+"_p50_us"] = rec.lat[k].quantile(0.5)
		m["store."+opNames[k]+"_p99_us"] = rec.lat[k].quantile(0.99)
		samplesN["store."+opNames[k]] = len(rec.lat[k])
	}
	for name, v := range res.layer {
		m[name] = v
	}
	ops := float64(rec.ops)
	reads := c["store_node_read_attempts_total"]
	m["store.degraded_subreads_per_op"] = ratio(float64(c["store_degraded_sub_reads_total"]), ops)
	m["store.partial_read_share"] = ratio(float64(c["store_partial_reads_total"]), float64(reads))
	m["store.plan_fallbacks"] = float64(c["store_plan_fallbacks_total"])
	m["store.failed_op_share"] = ratio(float64(rec.failed), float64(rec.ops+rec.failed))
	m["store.retries"] = float64(c["store_retries_total"])
	m["store.hedges"] = float64(c["store_hedges_total"])
	m["store.checksum_demotions"] = float64(c["store_checksum_demotions_total"])
	m["store.overloaded"] = float64(c["store_overloaded_total"])
	m["core.plancache_hit_share"] = ratio(float64(c[planCacheHits]), float64(c[planCacheHits]+c[planCacheMisses]))

	puts := float64(len(rec.lat[opPut]))
	m["journal.batches_per_put"] = ratio(float64(c["store_journal_batches_total"]), puts)
	m["journal.records_per_batch"] = ratio(float64(c["store_journal_records_total"]), float64(c["store_journal_batches_total"]))
	m["journal.bytes_per_user_byte"] = ratio(float64(c["store_journal_batch_bytes_total"]), float64(rec.userBytes))

	lookups := c["store_cache_hits_total"] + c["store_cache_misses_total"]
	m["tier.cache_hit_share"] = ratio(float64(c["store_cache_hits_total"]), float64(lookups))
	m["tier.cache_evictions"] = float64(c["store_cache_evictions_total"])
	for level, name := range tierMetric {
		m[name] = rec.tierLat[level].quantile(0.5)
	}

	cc := res.clientCounters
	m["net.retries"] = float64(cc["netio_client_retries_total"])
	m["net.hedges"] = float64(cc["netio_client_hedged_reads_total"])
	m["net.dials"] = float64(cc["netio_client_dials_total"])
	wire := cc["netio_client_read_bytes_total"] + cc["netio_client_readat_bytes_total"] + cc["netio_client_write_bytes_total"]
	m["net.wire_bytes_per_user_byte"] = ratio(float64(wire), float64(rec.userBytes))

	m["runtime.allocs_per_op"] = ratio(float64(res.rt.mallocs), ops)
	m["runtime.alloc_bytes_per_user_byte"] = ratio(float64(res.rt.allocBytes), float64(rec.userBytes))
	m["runtime.gc_cpu_share"] = res.rt.gcCPUShare
	m["runtime.peak_rss_mb"] = peakRSSMB()
}

// listRun is one run of a fixed op list with a single client on a fresh
// environment: its record, wall time, and the NodeIO traffic the list
// (not the preload) moved, as the store counts it and — traced — as the
// pass-through counts it.
type listRun struct {
	rec   *recorder
	wall  time.Duration
	store counterSnap
	tap   ioSnap
	// tcp reports a backend pass-through, i.e. wire and backend spans.
	tcp bool
}

// runList builds the environment, runs the list and tears the
// environment down again: nothing of the store outlives the call, so the
// next run starts from the same heap (a second resident store pushed the
// traced list's allocations onto fresh pages and billed their first-touch
// faults to tracing).
func runList(w *workload, cfg config, ops []op, tr *tracer) (run *listRun, err error) {
	e, err := w.traceSetup(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	// The preload went through the pass-through too; keep the list only.
	tr.reset()
	if e.nodeio != nil {
		e.nodeio.maxInFlight.Store(0)
	}
	storeBefore, tapBefore := snapStore(e), e.nodeio.snapshot()
	c := &client{env: e, rec: newRecorder(0, 0), rng: newRNG(cfg.seed, w.name+"/trace/client")}
	start := time.Now()
	for _, o := range ops {
		c.do(o)
	}
	run = &listRun{rec: c.rec, wall: time.Since(start), tcp: e.backend != nil}
	run.store = snapStore(e).sub(storeBefore)
	run.tap = e.nodeio.snapshot().sub(tapBefore)
	if c.rec.failed > 0 {
		return nil, fmt.Errorf("op list failed: %w", c.rec.firstFail)
	}
	return run, nil
}

// tracePhase runs the workload's fixed op list twice on fresh
// environments — untraced, then traced — and derives the per-layer
// numbers and the budget rows from the spans.
func tracePhase(w *workload, cfg config, m metricSet, log io.Writer) error {
	ops := w.traceOps(cfg)
	plain, err := runList(w, cfg, ops, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	tr := newTracer()
	traced, err := runList(w, cfg, ops, tr)
	if err != nil {
		return err
	}
	tcp := traced.tcp

	m["trace.overhead_share"] = ratio(traced.wall.Seconds()-plain.wall.Seconds(), plain.wall.Seconds())
	m["trace.spans"] = float64(tr.count())

	nio := traced.tap
	opsN := float64(traced.rec.ops)
	user := float64(traced.rec.userBytes)
	m["nodeio.read_calls_per_op"] = ratio(float64(nio.readCalls), opsN)
	m["nodeio.readat_calls_per_op"] = ratio(float64(nio.readAtCalls), opsN)
	m["nodeio.write_calls_per_op"] = ratio(float64(nio.writeCalls), opsN)
	m["nodeio.read_bytes_per_user_byte"] = ratio(float64(nio.readBytes), user)
	m["nodeio.write_bytes_per_user_byte"] = ratio(float64(nio.writeBytes), user)
	m["nodeio.busy_us_per_op"] = ratio(float64(nio.busyNS)/1e3, opsN)
	m["nodeio.max_in_flight"] = float64(nio.maxInFlight)

	costs := tr.opCosts()
	bs := budgets(costs)
	var totalNS, wireNS, backendNS int64
	for _, c := range costs {
		totalNS += c.total
		wireNS += c.wire
		backendNS += c.backend
	}
	for _, k := range []opKind{opPut, opUpdate, opGet, opGetSegment} {
		if b, ok := bs[spanName[k]]; ok {
			m["store."+opNames[k]+"_traced_us"] = b.median
			m["store."+opNames[k]+"_self_us"] = b.self
		}
	}
	if b, ok := bs[spanName[opRepair]]; ok {
		m["store.repair_self_share"] = ratio(b.self, b.self+b.nodeio)
	}
	if tcp {
		var rpcs samples
		for _, s := range tr.layerDurations(layerNodeIO) {
			rpcs = append(rpcs, s...)
		}
		m["net.rpc_p50_us"] = rpcs.quantile(0.5)
		m["net.rpc_p99_us"] = rpcs.quantile(0.99)
		m["net.wire_us_per_rpc"] = ratio(float64(wireNS)/1e3, float64(len(rpcs)))
		m["net.wire_share"] = ratio(float64(wireNS), float64(totalNS))
		m["net.rpcs_per_op"] = ratio(float64(len(rpcs)), opsN)
		back := tr.layerDurations(layerBackend)
		m["backend.read_us"] = meanUS(append(back["read"], back["readat"]...))
		m["backend.write_us"] = meanUS(back["write"])
		m["backend.busy_share"] = ratio(float64(backendNS), float64(totalNS))
	}

	printBudget(log, w.name, bs, tcp, m["trace.overhead_share"])
	if got, want := traced.store.nodeBytes(), plain.store.nodeBytes(); got != want {
		// Expected on playback_mem only: the tier cache shards by a
		// per-process random hash seed, so which entries it evicts, and
		// with that the NodeIO traffic, differs from store to store.
		fmt.Fprintf(log, "note: the traced list moved %d NodeIO bytes, the untraced list %d\n", got, want)
	}
	return tr.write(cfg.outDir, w.name, cfg.seed)
}

func meanUS(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s)) / 1e3
}

// printBudget prints one row per op kind: where the typical call's time
// went, and how close the parts come to the traced median.
func printBudget(log io.Writer, workload string, bs map[string]budget, tcp bool, overhead float64) {
	names := make([]string, 0, len(bs))
	for name := range bs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "budget %s (trace.overhead_share %.3f)\n", workload, overhead)
	for _, name := range names {
		b := bs[name]
		sum := b.self + b.nodeio
		fmt.Fprintf(log, "  %-20s n=%-6d traced median %10.1f us = store self %10.1f + nodeio %10.1f",
			name, b.n, b.median, b.self, b.nodeio)
		if tcp {
			fmt.Fprintf(log, " (wire %.1f us/rpc x %.1f rpcs + backend %.1f)", ratio(b.wire, b.rpcs), b.rpcs, b.backend)
		}
		fmt.Fprintf(log, "  [sum/median %.3f]\n", ratio(sum, b.median))
	}
}
