package netio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/resilience"
	"approxcode/internal/store"
)

// The batched write path end to end: the store's columnWriter → Client
// (one frame per DataNode) → Server → backend (one commit per frame),
// against the same columns written one call at a time.

// benchParams is the benchmark's geometry: 26 node slots, local groups
// of 5 data + 1 parity, 2 global parities.
func benchParams() core.Params {
	return core.Params{Family: core.FamilyRS, K: 5, R: 1, G: 2, H: 4, Structure: core.Uneven}
}

// deployment is nServers loopback DataNodes with node n on server
// n % nServers, and a client routed to them (through one chaos proxy per
// server when inj is set).
type deployment struct {
	servers  []*Server
	backends []chaos.NodeIO
	regs     []*obs.Registry // per server
	client   *Client
	creg     *obs.Registry
}

func deploy(t testing.TB, nodes, nServers int, backend func(i int) chaos.NodeIO, inj *chaos.Injector, retry RetryPolicy) *deployment {
	t.Helper()
	d := &deployment{creg: obs.NewRegistry(false)}
	routes := make(map[int]string, nodes)
	for i := 0; i < nServers; i++ {
		reg := obs.NewRegistry(false)
		b := backend(i)
		srv, err := NewServer(ServerConfig{Backend: b, Obs: reg})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addr := srv.Addr()
		if inj != nil {
			proxy, err := NewChaosProxy("127.0.0.1:0", addr, inj, nil)
			if err != nil {
				t.Fatalf("proxy %d: %v", i, err)
			}
			t.Cleanup(func() { _ = proxy.Close() })
			addr = proxy.Addr()
		}
		for node := i; node < nodes; node += nServers {
			routes[node] = addr
		}
		d.servers, d.backends, d.regs = append(d.servers, srv), append(d.backends, b), append(d.regs, reg)
	}
	if retry.Seed == 0 {
		retry.Seed = 1
	}
	client, err := Dial(ClientConfig{Nodes: routes, Obs: d.creg, Retry: retry})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	d.client = client
	return d
}

// sum adds one counter across the servers' registries.
func (d *deployment) sum(name string) int64 {
	var n int64
	for _, reg := range d.regs {
		n += reg.Counter(name).Value()
	}
	return n
}

func fileBackends(t testing.TB) func(int) chaos.NodeIO {
	root := t.TempDir()
	return func(i int) chaos.NodeIO { return openLog(t, fmt.Sprintf("%s/dn%d", root, i)) }
}

func memBackends(int) chaos.NodeIO { return NewMemBackend() }

// nodeIOOnly hides every optional extension of the NodeIO it wraps — a
// stack like that takes a stripe's columns one call at a time.
type nodeIOOnly struct{ inner chaos.NodeIO }

func (n nodeIOOnly) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return n.inner.ReadColumn(node, object, stripe)
}
func (n nodeIOOnly) WriteColumn(node int, object string, stripe int, data []byte) error {
	return n.inner.WriteColumn(node, object, stripe, data)
}

// benchSegments is one single-stripe object for benchParams at a
// 2 KiB node size: 24 segments that each fit their 512-byte sub-block.
func benchSegments() []store.Segment {
	segs := make([]store.Segment, 24)
	for i := range segs {
		segs[i] = store.Segment{ID: i, Important: i%6 == 0, Data: column(byte(i+1), 300+7*i)}
	}
	return segs
}

func mustGetExact(t testing.TB, s *store.Store, name string, want []store.Segment) *store.GetReport {
	t.Helper()
	got, rep, err := s.Get(name)
	if err != nil {
		t.Fatalf("Get %s: %v", name, err)
	}
	for i, seg := range want {
		if !bytes.Equal(got[i].Data, seg.Data) {
			t.Fatalf("%s segment %d differs (report %+v)", name, seg.ID, rep)
		}
	}
	return rep
}

// TestBatchEqualsSingleWrites: the scripted batches — first writes,
// overwrites, a tombstone, enough rewriting to compact — leave the same
// readable state written as batches and as single columns, on a
// FileBackend, over the wire onto a FileBackend, and over the wire onto
// a MemBackend (where the server runs the per-column side); for the
// file-backed ones also after a reopen.
func TestBatchEqualsSingleWrites(t *testing.T) {
	batches := scriptedBatches()
	universe := universeOf(batches)
	type target struct {
		io     chaos.NodeIO
		reopen func() chaos.NodeIO // nil: nothing survives a restart
	}
	direct := func(t *testing.T) target {
		dir := t.TempDir()
		return target{io: openLog(t, dir), reopen: func() chaos.NodeIO { return openLog(t, dir) }}
	}
	wired := func(backend func(t *testing.T) (chaos.NodeIO, func() chaos.NodeIO)) func(t *testing.T) target {
		return func(t *testing.T) target {
			b, reopen := backend(t)
			d := deploy(t, 16, 1, func(int) chaos.NodeIO { return b }, nil, RetryPolicy{})
			return target{io: d.client, reopen: reopen}
		}
	}
	kinds := map[string]func(t *testing.T) target{
		"file": direct,
		"wire+file": wired(func(t *testing.T) (chaos.NodeIO, func() chaos.NodeIO) {
			dir := t.TempDir()
			return openLog(t, dir), func() chaos.NodeIO { return openLog(t, dir) }
		}),
		"wire+mem": wired(func(*testing.T) (chaos.NodeIO, func() chaos.NodeIO) { return NewMemBackend(), nil }),
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			batched, single := mk(t), mk(t)
			state := make(colState)
			for i, b := range batches {
				if errs := batched.io.(chaos.BatchWriter).WriteColumnsCtx(context.Background(), b.object, b.writes); errs != nil {
					t.Fatalf("batch %d: %v", i, errs)
				}
				for _, w := range b.writes {
					if err := single.io.WriteColumn(w.Node, b.object, w.Stripe, w.Data); err != nil {
						t.Fatalf("batch %d as single writes: %v", i, err)
					}
				}
				state.applyWrites(b.object, b.writes)
				if err := readsAs(batched.io, universe, state); err != nil {
					t.Fatalf("after batch %d, batched: %v", i, err)
				}
				if err := readsAs(single.io, universe, state); err != nil {
					t.Fatalf("after batch %d, single writes: %v", i, err)
				}
			}
			if batched.reopen == nil {
				return
			}
			if err := readsAs(batched.reopen(), universe, state); err != nil {
				t.Fatalf("batched, reopened: %v", err)
			}
			if err := readsAs(single.reopen(), universe, state); err != nil {
				t.Fatalf("single writes, reopened: %v", err)
			}
		})
	}
}

// TestPutCountsBatchedVsPerColumn: one single-stripe Put over four
// DataNodes is 4 write frames and 4 durable commits through a store
// that sees the client's batched write, 26 and 26 through one that does
// not — with the same columns, bytes and node-write accounting either
// way.
func TestPutCountsBatchedVsPerColumn(t *testing.T) {
	type counts struct {
		frames, serverFrames, syncs        int64
		columns, serverColumns, wireBytes  int64
		storeAttempts, storeBytes, retries int64
	}
	run := func(t *testing.T, hide bool) counts {
		d := deploy(t, 26, 4, fileBackends(t), nil, RetryPolicy{})
		var backend chaos.NodeIO = d.client
		if hide {
			backend = nodeIOOnly{d.client}
		}
		reg := obs.NewRegistry(false)
		s, err := store.Open(store.Config{Code: benchParams(), NodeSize: 2048, Backend: backend, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		segs := benchSegments()
		if err := s.Put("video", segs); err != nil {
			t.Fatal(err)
		}
		mustGetExact(t, s, "video", segs)
		var syncs int64
		for _, b := range d.backends {
			syncs += b.(*FileBackend).Syncs()
		}
		if exported := d.regs[0].Snapshot()["netio_backend_syncs_total"]; exported != d.backends[0].(*FileBackend).Syncs() {
			t.Fatalf("netio_backend_syncs_total exports %v, backend made %d", exported, d.backends[0].(*FileBackend).Syncs())
		}
		return counts{
			frames:        d.creg.Counter("netio_client_write_batches_total").Value(),
			serverFrames:  d.sum("netio_server_write_batches_total"),
			syncs:         syncs,
			columns:       d.creg.Counter("netio_client_write_total").Value(),
			serverColumns: d.sum("netio_server_write_total"),
			wireBytes:     d.creg.Counter("netio_client_write_bytes_total").Value(),
			storeAttempts: reg.Counter("store_node_write_attempts_total").Value(),
			storeBytes:    reg.Counter("store_node_write_bytes_total").Value(),
			retries:       d.creg.Counter("netio_client_retries_total").Value(),
		}
	}
	batched, perColumn := run(t, false), run(t, true)
	if batched.frames != 4 || batched.serverFrames != 4 || batched.syncs != 4 {
		t.Fatalf("batched Put: %d frames sent, %d received, %d syncs; want 4, 4, 4", batched.frames, batched.serverFrames, batched.syncs)
	}
	if perColumn.frames != 26 || perColumn.serverFrames != 26 || perColumn.syncs != 26 {
		t.Fatalf("per-column Put: %d frames sent, %d received, %d syncs; want 26, 26, 26", perColumn.frames, perColumn.serverFrames, perColumn.syncs)
	}
	batched.frames, batched.serverFrames, batched.syncs = 0, 0, 0
	perColumn.frames, perColumn.serverFrames, perColumn.syncs = 0, 0, 0
	if batched != perColumn || batched.columns != 26 || batched.storeBytes != 26*2048 || batched.retries != 0 {
		t.Fatalf("accounting differs:\n batched    %+v\n per column %+v", batched, perColumn)
	}
}

// TestPutWithOneDataNodeDown: the dead DataNode's columns — exactly
// those — come back as per-column errors, every other column lands and
// the object publishes. With 13 DataNodes the dead one holds at most one
// column of any local group, so Get is byte-exact and UpdateSegment
// reports the first column it could not write; with the benchmark's 4
// it holds up to two, and Get is exact or flagged.
func TestPutWithOneDataNodeDown(t *testing.T) {
	fast := RetryPolicy{DialTimeout: 100 * time.Millisecond, RedialBackoff: time.Minute, OpDeadline: time.Second}
	segs := benchSegments()

	t.Run("13 DataNodes", func(t *testing.T) {
		d := deploy(t, 26, 13, memBackends, nil, fast)
		const dead = 11 // serves node 11 (local group 1) and node 24 (a global parity)
		s, err := store.Open(store.Config{Code: benchParams(), NodeSize: 2048, Backend: d.client})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("before", segs); err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs[:6] {
			if err := s.Put(fmt.Sprintf("before-%d", seg.ID), segs); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.servers[dead].Close(); err != nil {
			t.Fatal(err)
		}

		writes := make([]chaos.ColumnWrite, 26)
		for n := range writes {
			writes[n] = chaos.ColumnWrite{Node: n, Stripe: 0, Data: column(byte(n), 64)}
		}
		errs := d.client.WriteColumnsCtx(context.Background(), "raw", writes)
		for n := range writes {
			onDead := n%13 == dead
			if got := errs != nil && errs[n] != nil; got != onDead {
				t.Fatalf("column %d (on the dead DataNode: %v): error %v", n, onDead, errs[n])
			}
			if onDead && !errors.Is(errs[n], chaos.ErrNodeUnavailable) {
				t.Fatalf("column %d: %v, want ErrNodeUnavailable", n, errs[n])
			}
			if got, err := d.client.ReadColumn(n, "raw", 0); !onDead && (err != nil || !bytes.Equal(got, writes[n].Data)) {
				t.Fatalf("column %d did not land: %v", n, err)
			}
		}

		if err := s.Put("during", segs); err != nil {
			t.Fatalf("Put with a DataNode down: %v", err)
		}
		for _, name := range []string{"before", "during"} {
			if rep := mustGetExact(t, s, name, segs); len(rep.LostSegments) != 0 {
				t.Fatalf("%s: lost segments %v", name, rep.LostSegments)
			}
		}
		// An update rewrites a data column, its group's parity and both
		// global parities, one at a time in node order, and stops at the
		// first it cannot write: node 11 where the segment's group is the
		// dead DataNode's, global parity 24 otherwise. What it had
		// written by then stays unpublished, so each update gets its own
		// object.
		for _, seg := range segs[:6] {
			err := s.UpdateSegment(fmt.Sprintf("before-%d", seg.ID), seg.ID, column(99, len(seg.Data)))
			if !errors.Is(err, chaos.ErrNodeUnavailable) ||
				!(strings.Contains(err.Error(), "write node 11:") || strings.Contains(err.Error(), "write node 24:")) {
				t.Fatalf("UpdateSegment %d with the DataNode of nodes 11 and 24 down: %v", seg.ID, err)
			}
		}
	})

	t.Run("4 DataNodes", func(t *testing.T) {
		d := deploy(t, 26, 4, memBackends, nil, fast)
		s, err := store.Open(store.Config{Code: benchParams(), NodeSize: 2048, Backend: d.client})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.servers[1].Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("during", segs); err != nil {
			t.Fatalf("Put with a DataNode down: %v", err)
		}
		got, rep, err := s.Get("during")
		if err != nil {
			t.Fatal(err)
		}
		lost := make(map[int]bool)
		for _, id := range rep.LostSegments {
			lost[id] = true
		}
		for i, seg := range segs {
			if !lost[seg.ID] && !bytes.Equal(got[i].Data, seg.Data) {
				t.Fatalf("segment %d is neither exact nor flagged (report %+v)", seg.ID, rep)
			}
			if lost[seg.ID] && seg.Important {
				t.Fatalf("important segment %d lost with 7 of 26 columns missing (report %+v)", seg.ID, rep)
			}
		}
	})
}

// TestProxyFaultsBiteInsideBatchFrame: a corrupt and a torn rule on the
// third column of a DataNode's write frame damage that column alone,
// and the store's column CRC catches it exactly as for a single write:
// the Get that follows demotes it and decodes around it.
func TestProxyFaultsBiteInsideBatchFrame(t *testing.T) {
	for _, fault := range []string{"corrupt,bytes=3", "torn,keep=0.5"} {
		t.Run(fault, func(t *testing.T) {
			// One DataNode: a stripe is one frame, node 2 its third column.
			rules, err := chaos.ParseSchedule("node=2,op=write,fault=" + fault)
			if err != nil {
				t.Fatal(err)
			}
			inj := chaos.NewInjector(1, rules...)
			d := deploy(t, 26, 1, memBackends, inj, RetryPolicy{})
			s, err := store.Open(store.Config{Code: benchParams(), NodeSize: 2048, Backend: d.client})
			if err != nil {
				t.Fatal(err)
			}
			segs := benchSegments()
			if err := s.Put("video", segs); err != nil {
				t.Fatal(err)
			}
			if frames := d.creg.Counter("netio_client_write_batches_total").Value(); frames != 1 {
				t.Fatalf("the stripe left in %d frames, want 1", frames)
			}
			if st := inj.Stats(); st.CorruptWrites+st.TornWrites != 1 {
				t.Fatalf("injector stats %+v: want exactly one damaged write", st)
			}
			rep := mustGetExact(t, s, "video", segs)
			if rep.ChecksumFailures != 1 || len(rep.LostSegments) != 0 {
				t.Fatalf("report %+v: want the one damaged column demoted and decoded around", rep)
			}
		})
	}
}

// TestProxyTransientOnOneColumnOfBatch: an injected transient error on
// one column answers for that column alone; the client retries just that
// column and the whole stripe lands.
func TestProxyTransientOnOneColumnOfBatch(t *testing.T) {
	inj := chaos.NewInjector(1, chaos.Rule{Node: 8, Stripe: chaos.Any, Op: chaos.OpWrite, Kind: chaos.FaultTransient, Count: 2})
	d := deploy(t, 26, 4, memBackends, inj, RetryPolicy{})
	writes := make([]chaos.ColumnWrite, 26)
	for n := range writes {
		writes[n] = chaos.ColumnWrite{Node: n, Stripe: 0, Data: column(byte(n), 64)}
	}
	if errs := d.client.WriteColumnsCtx(context.Background(), "obj", writes); errs != nil {
		t.Fatalf("batch with two transient errors on node 8: %v", errs)
	}
	// 4 frames, then two more carrying node 8's column alone.
	if frames, cols := d.creg.Counter("netio_client_write_batches_total").Value(), d.sum("netio_server_write_total"); frames != 6 || cols != 26 {
		t.Fatalf("%d frames, %d columns reached the DataNodes; want 6 and 26", frames, cols)
	}
	if retries := d.creg.Counter("netio_client_retries_total").Value(); retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	for n, w := range writes {
		if got, err := d.client.ReadColumn(n, "obj", 0); err != nil || !bytes.Equal(got, w.Data) {
			t.Fatalf("column %d: %v", n, err)
		}
	}
}

// TestPoolsAreKeyedByAddress: 26 node slots on 4 DataNodes share 4
// connection pools and dial circuits — sequential operations dial each
// address once, and one refused dial to a dead DataNode fast-fails every
// slot it serves — while the health FSM stays per node.
func TestPoolsAreKeyedByAddress(t *testing.T) {
	d := deploy(t, 26, 4, memBackends, nil, RetryPolicy{DialTimeout: 100 * time.Millisecond, RedialBackoff: time.Minute, HedgeDelay: -1})
	dials := d.creg.Counter("netio_client_dials_total")
	failures := d.creg.Counter("netio_client_dial_failures_total")
	fastFails := d.creg.Counter("netio_client_fast_fails_total")
	for n := 0; n < 26; n++ {
		if err := d.client.WriteColumn(n, "obj", 0, column(byte(n), 32)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.client.ReadColumn(n, "obj", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Value(); got > 4 {
		t.Fatalf("52 sequential operations on 4 DataNodes dialed %d times", got)
	}

	if err := d.servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	d0, f0 := dials.Value(), fastFails.Value()
	slots := 0
	for n := 2; n < 26; n += 4 {
		if _, err := d.client.ReadColumn(n, "obj", 0); !errors.Is(err, chaos.ErrNodeUnavailable) {
			t.Fatalf("node %d on the dead DataNode: %v", n, err)
		}
		slots++
	}
	// The first slot's read finds the stale pooled socket, redials and
	// is refused; that one refusal opens the circuit for all six.
	if got := failures.Value(); got != 1 {
		t.Fatalf("%d refused dials for one dead address", got)
	}
	if newDials, ff := dials.Value()-d0, fastFails.Value()-f0; newDials != 1 || ff != int64(slots-1) {
		t.Fatalf("%d dials and %d fast-fails for %d slots of one dead DataNode; want 1 and %d", newDials, ff, slots, slots-1)
	}
	if _, err := d.client.ReadColumn(3, "obj", 0); err != nil {
		t.Fatalf("a slot of a live DataNode: %v", err)
	}
	// Known-down is not misbehaving: no slot was penalised, and each
	// keeps its own state.
	d.client.health.Fail(2)
	if got, other := d.client.health.State(2), d.client.health.State(6); other != resilience.Healthy || got != resilience.Healthy {
		t.Fatalf("health after one reported failure on node 2: node 2 %v, node 6 %v", got, other)
	}
	for i := 0; i < 3; i++ {
		d.client.health.Fail(2)
	}
	if got, other := d.client.health.State(2), d.client.health.State(6); got == resilience.Healthy || other != resilience.Healthy {
		t.Fatalf("health FSM is not per node: node 2 %v, node 6 %v", got, other)
	}
}

// TestColumnReadRoundTripAllocatesOneBufferPerSide is the allocation
// gate of the frame path: a 128 KiB ReadColumn over loopback costs one
// column-sized buffer on the DataNode (the backend's read) and one on
// the client (the frame it hands back) — the response is neither
// assembled into a payload nor copied into a frame on the way.
func TestColumnReadRoundTripAllocatesOneBufferPerSide(t *testing.T) {
	const colSize = 128 << 10
	d := deploy(t, 1, 1, fileBackends(t), nil, RetryPolicy{HedgeDelay: -1})
	if err := d.client.WriteColumn(0, "obj", 0, column(1, colSize)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if data, err := d.client.ReadColumn(0, "obj", 0); err != nil || len(data) != colSize {
			t.Fatalf("ReadColumn: %d bytes, %v", len(data), err)
		}
	}
	read() // dial, fill the pools
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if perOp < 2*colSize || perOp > 2.25*colSize {
		t.Fatalf("a %d-byte column read allocates %.0f bytes per round trip (%.2f columns); want two columns' worth", colSize, perOp, perOp/colSize)
	}
}

// TestLargeBatchSplitsAcrossFrames: a DataNode's share of a batch that
// would not fit maxBatchPayload leaves as several frames, each its own
// operation, and every column still lands.
func TestLargeBatchSplitsAcrossFrames(t *testing.T) {
	d := deploy(t, 3, 1, memBackends, nil, RetryPolicy{})
	writes := make([]chaos.ColumnWrite, 3)
	for n := range writes {
		writes[n] = chaos.ColumnWrite{Node: n, Stripe: 0, Data: bytes.Repeat([]byte{byte(n + 1)}, maxBatchPayload/2-1024+n)}
	}
	if errs := d.client.WriteColumnsCtx(context.Background(), "big", writes); errs != nil {
		t.Fatalf("large batch: %v", errs)
	}
	if frames := d.creg.Counter("netio_client_write_batches_total").Value(); frames != 2 {
		t.Fatalf("three columns of ~%d MiB left in %d frames, want 2", maxBatchPayload>>21, frames)
	}
	for n, w := range writes {
		if got, err := d.client.ReadColumn(n, "big", 0); err != nil || !bytes.Equal(got, w.Data) {
			t.Fatalf("column %d: %d bytes, %v", n, len(got), err)
		}
	}
}
