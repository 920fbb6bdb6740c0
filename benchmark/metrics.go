package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef is one catalogue entry. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what an operator of the store sees, and BENCHMARK.json's
// end_to_end list. Every entry is measured, and non-zero, on every
// workload (the driver's contract): object_op and segment_op name the
// workload's whole-object and single-segment operation — Put and
// UpdateSegment on ingest_durable, Get and GetSegment on the three read
// workloads. Bound here is the one BENCHMARK.json declares, one per metric
// for all workloads, so the time-based ones carry what the noisiest
// workload needs: two ten-run sets of the same commit put tcp_mixed's
// medians 8 to 15 % apart on this 2-vCPU sandbox (README, "How steady it
// is"). -compare is stricter where it can be: see timeBound and gates.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"user_mbps", "MB/s", higher, 0.25},
	{"object_op_p50_us", "us", lower, 0.25},
	{"segment_op_p50_us", "us", lower, 0.25},
	{"storage_overhead", "B/B", lower, 0.001},
	{"io_amp", "B/B", lower, 0.02},
}

// timed are the rates and latencies of endToEnd: -compare holds them to
// the workload's timeBound — 15 % on the three in-process workloads, 25 %
// on tcp_mixed. ISSUE.md's 10 % does not survive this host: ten-seed
// spreads in process are 2 to 5 %, but two sets of the same commit run
// twenty minutes apart lay up to 12 % apart (playback_mem ops_per_s), so
// at 10 % a commit compared with itself read "worse". setup_s keeps the
// largest bound everywhere (a set-up is a fraction of a second and spreads
// up to 17 %); the counts keep their own.
var timed = map[string]bool{
	"ops_per_s": true, "user_mbps": true, "object_op_p50_us": true, "segment_op_p50_us": true,
}

// gates are ISSUE.md's end-to-end metrics that exist on one workload only
// and so cannot be in endToEnd: the repair rate and the approximate share
// of degraded_repair, and the Put median of tcp_mixed (object_op is Get
// there). They are measured on the loaded run, reported under their
// per-layer names with or without the traced run, and -compare holds them
// to these bounds like any end-to-end metric; the repair rate drifts with
// the host like the other in-process rates and shares their 15 %.
var gates = map[string][]metricDef{
	"degraded_repair": {
		{"store.repair_mbps", "MB/s", higher, 0.15},
		{"store.approx_share", "share", lower, 0.001},
	},
	"tcp_mixed": {
		{"store.put_p50_us", "us", lower, 0.25},
	},
}

// perLayer lists the single-layer metrics, layer = module name. A metric
// a workload does not exercise reads 0 there (journal.* and net.* on the
// in-memory workloads are the predicted "no change" cells).
var perLayer = []metricDef{
	// store: wall time around the public methods, loaded run.
	{"store.put_p50_us", "us", lower, 0},
	{"store.update_p50_us", "us", lower, 0},
	{"store.get_p50_us", "us", lower, 0},
	{"store.getseg_p50_us", "us", lower, 0},
	{"store.put_p99_us", "us", lower, 0},
	{"store.update_p99_us", "us", lower, 0},
	{"store.get_p99_us", "us", lower, 0},
	{"store.getseg_p99_us", "us", lower, 0},
	// store: traced op list. Self time is the op span minus the union of
	// its nodeio child spans; traced_us is the median the budget row sums to.
	{"store.put_traced_us", "us", lower, 0},
	{"store.update_traced_us", "us", lower, 0},
	{"store.get_traced_us", "us", lower, 0},
	{"store.getseg_traced_us", "us", lower, 0},
	{"store.put_self_us", "us", lower, 0},
	{"store.update_self_us", "us", lower, 0},
	{"store.get_self_us", "us", lower, 0},
	{"store.getseg_self_us", "us", lower, 0},
	{"store.repair_self_share", "share", lower, 0},
	{"store.repair_mbps", "MB/s", higher, 0},
	{"store.repair_read_amp", "B/B", lower, 0},
	{"store.repair_stripes_per_s", "1/s", higher, 0},
	{"store.degraded_subreads_per_op", "count", lower, 0},
	{"store.partial_read_share", "share", higher, 0},
	{"store.plan_fallbacks", "count", lower, 0},
	{"store.save_mbps", "MB/s", higher, 0},
	{"store.recover_s", "s", lower, 0},
	{"store.approx_share", "share", lower, 0},
	{"store.failed_op_share", "share", lower, 0},
	{"store.retries", "count", lower, 0},
	{"store.hedges", "count", lower, 0},
	{"store.checksum_demotions", "count", lower, 0},
	{"store.overloaded", "count", lower, 0},
	// journal: store_journal_* counters of the loaded run plus a device probe.
	{"journal.batches_per_put", "count", lower, 0},
	{"journal.records_per_batch", "count", higher, 0},
	{"journal.bytes_per_user_byte", "B/B", lower, 0},
	{"journal.fsync_probe_us", "us", lower, 0},
	// nodeio: the pass-through at the chaos.NodeIO boundary, traced op list.
	{"nodeio.read_calls_per_op", "count", lower, 0},
	{"nodeio.readat_calls_per_op", "count", lower, 0},
	{"nodeio.write_calls_per_op", "count", lower, 0},
	{"nodeio.read_bytes_per_user_byte", "B/B", lower, 0},
	{"nodeio.write_bytes_per_user_byte", "B/B", lower, 0},
	{"nodeio.busy_us_per_op", "us", lower, 0},
	{"nodeio.max_in_flight", "count", higher, 0},
	// net: client-side span around each netio.Client call (tcp_mixed).
	{"net.rpc_p50_us", "us", lower, 0},
	{"net.rpc_p99_us", "us", lower, 0},
	{"net.wire_us_per_rpc", "us", lower, 0},
	{"net.wire_share", "share", lower, 0},
	{"net.wire_bytes_per_user_byte", "B/B", lower, 0},
	{"net.rpcs_per_op", "count", lower, 0},
	{"net.dials", "count", lower, 0},
	{"net.retries", "count", lower, 0},
	{"net.hedges", "count", lower, 0},
	// backend: span around each server's ServerConfig.Backend (tcp_mixed).
	{"backend.read_us", "us", lower, 0},
	{"backend.write_us", "us", lower, 0},
	{"backend.busy_share", "share", lower, 0},
	// core: direct probes on one 26×128 KiB stripe of the workload geometry;
	// plancache_hit_share is the store's own code over the loaded run.
	{"core.encode_mbps", "MB/s", higher, 0},
	{"core.encode_us_per_stripe", "us", lower, 0},
	{"core.reconstruct1_us_per_stripe", "us", lower, 0},
	{"core.reconstruct3_us_per_stripe", "us", lower, 0},
	{"core.update_us", "us", lower, 0},
	{"core.planread_ns", "ns", lower, 0},
	{"core.plancache_hit_share", "share", higher, 0},
	{"core.encode_share_of_put", "share", lower, 0},
	// coder: direct probes at k=5, the 3DFT baselines behind the framework.
	{"coder.rs_encode_mbps", "MB/s", higher, 0},
	{"coder.rs_decode_mbps", "MB/s", higher, 0},
	{"coder.lrc_encode_mbps", "MB/s", higher, 0},
	{"coder.lrc_decode_mbps", "MB/s", higher, 0},
	{"coder.star_encode_mbps", "MB/s", higher, 0},
	{"coder.star_decode_mbps", "MB/s", higher, 0},
	{"coder.tip_encode_mbps", "MB/s", higher, 0},
	{"coder.tip_decode_mbps", "MB/s", higher, 0},
	// gf256: kernel probes at 128 KiB.
	{"gf256.muladd_mbps", "MB/s", higher, 0},
	{"gf256.mul_mbps", "MB/s", higher, 0},
	{"gf256.xor_mbps", "MB/s", higher, 0},
	// tier: playback_mem.
	{"tier.cache_hit_share", "share", higher, 0},
	{"tier.cache_evictions", "count", lower, 0},
	{"tier.hot_getseg_p50_us", "us", lower, 0},
	{"tier.warm_getseg_p50_us", "us", lower, 0},
	{"tier.cold_getseg_p50_us", "us", lower, 0},
	{"tier.migrate_mbps", "MB/s", higher, 0},
	// video: interpolation of the frames flagged in degraded_repair's final phase.
	{"video.interp_psnr_db", "dB", higher, 0},
	{"video.interp_us_per_frame", "us", lower, 0},
	// runtime: loaded run.
	{"runtime.allocs_per_op", "count", lower, 0},
	{"runtime.alloc_bytes_per_user_byte", "B/B", lower, 0},
	{"runtime.gc_cpu_share", "share", lower, 0},
	{"runtime.peak_rss_mb", "MB", lower, 0},
	// trace: cost of the traced op list against the same list untraced.
	{"trace.overhead_share", "share", lower, 0},
	{"trace.spans", "count", lower, 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values one run produces, by catalogue name.
type metricSet map[string]float64

// report renders the set against a catalogue: every catalogue entry
// appears, unmeasured ones as 0.
func (m metricSet) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// samples is a pooled set of durations in nanoseconds.
type samples []int64

// quantile returns the q-quantile in microseconds (nearest rank on the
// sorted pool), 0 when empty. It sorts in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
