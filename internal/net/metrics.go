package netio

import "approxcode/internal/obs"

// Per-RPC observability. Every component takes an optional
// *obs.Registry; a nil registry yields nil instruments, which the obs
// package treats as disabled no-ops, so the hot path carries no
// conditionals.

// rpcMetrics instruments one RPC kind on one side of the wire.
type rpcMetrics struct {
	total   *obs.Counter
	errors  *obs.Counter
	bytes   *obs.Counter
	seconds *obs.Histogram
}

func newRPCMetrics(reg *obs.Registry, side, op string) rpcMetrics {
	if reg == nil {
		return rpcMetrics{}
	}
	p := "netio_" + side + "_" + op
	return rpcMetrics{
		total:   reg.Counter(p + "_total"),
		errors:  reg.Counter(p + "_errors_total"),
		bytes:   reg.Counter(p + "_bytes_total"),
		seconds: reg.Histogram(p + "_seconds"),
	}
}

type serverMetrics struct {
	// write counts columns; writeBatches the frames they arrived in.
	read, readAt, write, ping rpcMetrics
	writeBatches              *obs.Counter
	conns                     *obs.Gauge
	badFrames                 *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		read:   newRPCMetrics(reg, "server", "read"),
		readAt: newRPCMetrics(reg, "server", "readat"),
		write:  newRPCMetrics(reg, "server", "write"),
		ping:   newRPCMetrics(reg, "server", "ping"),
	}
	if reg != nil {
		m.writeBatches = reg.Counter("netio_server_write_batches_total")
		m.conns = reg.Gauge("netio_server_conns")
		m.badFrames = reg.Counter("netio_server_bad_frames_total")
	}
	return m
}

type clientMetrics struct {
	// write counts columns; writeBatches the frames sent for them
	// (attempts included).
	read, readAt, write, ping rpcMetrics
	writeBatches              *obs.Counter
	retries                   *obs.Counter
	hedges                    *obs.Counter
	hedgeWins                 *obs.Counter
	dials                     *obs.Counter
	dialFailures              *obs.Counter
	fastFails                 *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	m := clientMetrics{
		read:   newRPCMetrics(reg, "client", "read"),
		readAt: newRPCMetrics(reg, "client", "readat"),
		write:  newRPCMetrics(reg, "client", "write"),
		ping:   newRPCMetrics(reg, "client", "ping"),
	}
	if reg != nil {
		m.writeBatches = reg.Counter("netio_client_write_batches_total")
		m.retries = reg.Counter("netio_client_retries_total")
		m.hedges = reg.Counter("netio_client_hedged_reads_total")
		m.hedgeWins = reg.Counter("netio_client_hedge_wins_total")
		m.dials = reg.Counter("netio_client_dials_total")
		m.dialFailures = reg.Counter("netio_client_dial_failures_total")
		m.fastFails = reg.Counter("netio_client_fast_fails_total")
	}
	return m
}

type masterMetrics struct {
	registrations  *obs.Counter
	heartbeats     *obs.Counter
	staleBeats     *obs.Counter
	deadDetections *obs.Counter
	nodesAlive     *obs.Gauge
	nodesSuspect   *obs.Gauge
	nodesDead      *obs.Gauge
}

func newMasterMetrics(reg *obs.Registry) masterMetrics {
	if reg == nil {
		return masterMetrics{}
	}
	return masterMetrics{
		registrations:  reg.Counter("netio_master_registrations_total"),
		heartbeats:     reg.Counter("netio_master_heartbeats_total"),
		staleBeats:     reg.Counter("netio_master_stale_heartbeats_total"),
		deadDetections: reg.Counter("netio_master_dead_detections_total"),
		nodesAlive:     reg.Gauge("netio_master_nodes_alive"),
		nodesSuspect:   reg.Gauge("netio_master_nodes_suspect"),
		nodesDead:      reg.Gauge("netio_master_nodes_dead"),
	}
}
