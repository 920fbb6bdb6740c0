package store

import (
	"time"

	"approxcode/internal/gf256"
	"approxcode/internal/obs"
)

// storeMetrics is the store's registry-backed telemetry. It replaces
// the former ad-hoc mutex-guarded counters struct: every counter is an
// atomic (obs.Counter), updated genuinely lock-free from the I/O hot
// paths, and Store.Stats is a thin view over these handles. Latency
// histograms and spans record only while the registry is enabled; with
// the default private disabled registry they cost one atomic load.
type storeMetrics struct {
	reg *obs.Registry

	// Self-healing I/O counters (the Stats robustness view).
	retries          *obs.Counter
	hedges           *obs.Counter
	hedgeWins        *obs.Counter
	readErrors       *obs.Counter
	checksumFailures *obs.Counter
	// checksumDemotions counts columns/sub-blocks demoted to erasures
	// after a CRC mismatch — incremented at every demote site (whole-
	// column and partial-read fast path alike), alongside the health
	// FSM's corruption streak.
	checksumDemotions *obs.Counter
	shardsHealed      *obs.Counter
	degradedSubReads  *obs.Counter

	// Tier migrations (see internal/tier and store tier.go) and the
	// decoded-segment read cache.
	tierPromotions *obs.Counter
	tierDemotions  *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheBytes     *obs.Gauge
	// migrateSeconds times whole-object migrations; migrateBytes
	// records redundancy bytes written per migration on the histogram's
	// microsecond scale (one "µs" = one byte moved).
	migrateSeconds *obs.Histogram
	migrateBytes   *obs.Histogram

	// Per-attempt NodeIO accounting.
	readAttempts  *obs.Counter
	writeAttempts *obs.Counter
	readBytes     *obs.Counter
	writeBytes    *obs.Counter

	// Read-planning accounting: partial-column reads and their bytes,
	// escalations from a minimal plan to the full-stripe final rung, and
	// per-path plan widths (columns read per planned stripe, recorded on
	// the histogram's microsecond scale: one "µs" = one column).
	partialReads     *obs.Counter
	partialReadBytes *obs.Counter
	planFallbacks    *obs.Counter
	readPlanWidth    *obs.Histogram
	repairPlanWidth  *obs.Histogram

	// Repair orchestrator progress (the queue gauge is set by the
	// active run; counters accumulate across runs).
	repairQueueDepth      *obs.Gauge
	repairBytesImportant  *obs.Counter
	repairBytesBestEffort *obs.Counter
	repairReadBytes       *obs.Counter
	repairCheckpoints     *obs.Counter
	repairsResumed        *obs.Counter
	// Topology split of repair survivor reads: a byte is rack-local
	// when the column read shares a rack with a failed node being
	// rebuilt (see Repair.accountRead).
	repairBytesRackLocal *obs.Counter
	repairBytesCrossRack *obs.Counter

	// Admission control: ops currently admitted / waiting for a slot,
	// and ops shed with ErrOverloaded.
	inflight     *obs.Gauge
	admitWaiting *obs.Gauge
	overloaded   *obs.Counter

	// Group-commit journal: fsync batches, records coalesced into them,
	// and batch payload bytes. records/batches is the amortization
	// factor the pr6 bench reports.
	journalBatches    *obs.Counter
	journalRecords    *obs.Counter
	journalBatchBytes *obs.Counter

	// Per-operation latency histograms.
	opPut        *obs.Histogram
	opGet        *obs.Histogram
	opGetSegment *obs.Histogram
	opUpdate     *obs.Histogram
	opRepair     *obs.Histogram
	opScrub      *obs.Histogram
	nodeRead     *obs.Histogram
	nodeWrite    *obs.Histogram
}

// newStoreMetrics binds the store's metric handles to reg. A nil reg
// gets a fresh private disabled registry, so counters (and therefore
// Stats) work even for callers that never asked for observability.
func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		reg = obs.NewRegistry(false)
	}
	return storeMetrics{
		reg:               reg,
		retries:           reg.Counter("store_retries_total"),
		hedges:            reg.Counter("store_hedges_total"),
		hedgeWins:         reg.Counter("store_hedge_wins_total"),
		readErrors:        reg.Counter("store_read_errors_total"),
		checksumFailures:  reg.Counter("store_checksum_failures_total"),
		checksumDemotions: reg.Counter("store_checksum_demotions_total"),
		shardsHealed:      reg.Counter("store_shards_healed_total"),
		degradedSubReads:  reg.Counter("store_degraded_sub_reads_total"),

		tierPromotions: reg.Counter("store_tier_promotions_total"),
		tierDemotions:  reg.Counter("store_tier_demotions_total"),
		cacheHits:      reg.Counter("store_cache_hits_total"),
		cacheMisses:    reg.Counter("store_cache_misses_total"),
		cacheEvictions: reg.Counter("store_cache_evictions_total"),
		cacheBytes:     reg.Gauge("store_cache_bytes"),
		migrateSeconds: reg.Histogram("store_tier_migrate_seconds"),
		migrateBytes:   reg.Histogram("store_tier_migrate_bytes"),
		readAttempts:   reg.Counter("store_node_read_attempts_total"),
		writeAttempts:  reg.Counter("store_node_write_attempts_total"),
		readBytes:      reg.Counter("store_node_read_bytes_total"),
		writeBytes:     reg.Counter("store_node_write_bytes_total"),

		partialReads:     reg.Counter("store_partial_reads_total"),
		partialReadBytes: reg.Counter("store_partial_read_bytes_total"),
		planFallbacks:    reg.Counter("store_plan_fallbacks_total"),
		readPlanWidth:    reg.Histogram("store_read_plan_width_cols"),
		repairPlanWidth:  reg.Histogram("store_repair_plan_width_cols"),

		repairQueueDepth:      reg.Gauge("store_repair_queue_depth"),
		repairBytesImportant:  reg.Counter("store_repair_bytes_important_total"),
		repairBytesBestEffort: reg.Counter("store_repair_bytes_unimportant_total"),
		repairReadBytes:       reg.Counter("store_repair_read_bytes_total"),
		repairCheckpoints:     reg.Counter("store_repair_checkpoints_total"),
		repairsResumed:        reg.Counter("store_repairs_resumed_total"),
		repairBytesRackLocal:  reg.Counter("store_repair_read_bytes_rack_local_total"),
		repairBytesCrossRack:  reg.Counter("store_repair_read_bytes_cross_rack_total"),

		inflight:     reg.Gauge("store_inflight_ops"),
		admitWaiting: reg.Gauge("store_admission_waiting"),
		overloaded:   reg.Counter("store_overloaded_total"),

		journalBatches:    reg.Counter("store_journal_batches_total"),
		journalRecords:    reg.Counter("store_journal_records_total"),
		journalBatchBytes: reg.Counter("store_journal_batch_bytes_total"),

		opPut:        reg.Histogram("store_put_seconds"),
		opGet:        reg.Histogram("store_get_seconds"),
		opGetSegment: reg.Histogram("store_get_segment_seconds"),
		opUpdate:     reg.Histogram("store_update_seconds"),
		opRepair:     reg.Histogram("store_repair_seconds"),
		opScrub:      reg.Histogram("store_scrub_seconds"),
		nodeRead:     reg.Histogram("store_node_read_seconds"),
		nodeWrite:    reg.Histogram("store_node_write_seconds"),
	}
}

// registerGauges exposes polled store state on the registry. First
// registration of a name wins, so when several stores share one
// registry the gauges describe the first store (counters, which
// accumulate across all sharers, are unaffected).
func (s *Store) registerGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc("store_objects", func() int64 {
		return int64(s.objects.count())
	})
	reg.GaugeFunc("store_nodes", func() int64 { return int64(len(s.nodes)) })
	reg.GaugeFunc("store_failed_nodes", func() int64 { return int64(len(s.FailedNodes())) })
	reg.GaugeFunc("store_suspect_nodes", func() int64 {
		suspect, _ := s.healthCounts()
		return int64(suspect)
	})
	reg.GaugeFunc("store_down_nodes", func() int64 {
		_, down := s.healthCounts()
		return int64(down)
	})
	reg.GaugeFunc("store_repair_checkpoint_age_seconds", func() int64 {
		last := s.lastCkpt.Load()
		if last == 0 {
			return -1 // no checkpoint yet
		}
		return int64(time.Since(time.Unix(0, last)).Seconds())
	})
	reg.Info("gf256_active_kernel", gf256.Kernel)
}

// Obs returns the registry backing the store's metrics (the one passed
// in Config.Obs, or the store's private registry).
func (s *Store) Obs() *obs.Registry { return s.metrics.reg }
