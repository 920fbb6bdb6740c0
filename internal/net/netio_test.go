package netio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/store"
)

func testParams() core.Params {
	return core.Params{Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven}
}

func totalNodes(t testing.TB, p core.Params) int {
	t.Helper()
	c, err := core.New(p)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return c.TotalShards()
}

// nodeSplit deals node indexes round-robin across nServers DataNodes.
func nodeSplit(total, nServers int) [][]int {
	out := make([][]int, nServers)
	for node := 0; node < total; node++ {
		out[node%nServers] = append(out[node%nServers], node)
	}
	return out
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

func testSegments(n int) []store.Segment {
	segs := make([]store.Segment, n)
	for i := range segs {
		data := bytes.Repeat([]byte{byte(i + 1)}, 200+17*i)
		segs[i] = store.Segment{ID: i, Important: i%3 == 0, Data: data}
	}
	return segs
}

// TestEndToEnd runs the full deployment in-process: a master, four
// DataNode servers registering and heartbeating, and a store whose
// backend is the network client. It then kills one DataNode and
// asserts the acceptance criteria of the networked path:
//   - the master detects the death within the configured bound,
//   - reads degrade through planned reconstruction with no
//     client-visible error and exact bytes,
//   - the node rejoins cleanly after restart (same columns, new
//     incarnation) and serving recovers.
func TestEndToEnd(t *testing.T) {
	params := testParams()
	total := totalNodes(t, params)
	const nServers = 4
	split := nodeSplit(total, nServers)

	liveness := LivenessPolicy{
		Interval:      20 * time.Millisecond,
		SuspectMisses: 2,
		DeadMisses:    4,
		CheckEvery:    10 * time.Millisecond,
	}
	master, err := NewMaster(MasterConfig{Liveness: liveness})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	defer master.Close()

	backends := make([]*MemBackend, nServers)
	servers := make([]*Server, nServers)
	startServer := func(i int) {
		srv, err := NewServer(ServerConfig{
			Backend:   backends[i],
			Nodes:     split[i],
			Master:    master.Addr(),
			Heartbeat: liveness.Interval,
		})
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		servers[i] = srv
	}
	for i := range servers {
		backends[i] = NewMemBackend()
		startServer(i)
	}
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
	}()

	waitFor(t, 2*time.Second, "all nodes registered", func() bool {
		return len(master.NodeMap()) == total
	})

	client, err := Dial(ClientConfig{
		Master: master.Addr(),
		Retry: RetryPolicy{
			Seed:        1,
			OpDeadline:  300 * time.Millisecond,
			DialTimeout: 100 * time.Millisecond,
		},
		Health: HealthPolicy{ProbeAfter: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	s, err := store.Open(store.Config{
		Code:     params,
		NodeSize: 1536,
		Backend:  client,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}

	segs := testSegments(9)
	if err := s.Put("video", segs); err != nil {
		t.Fatalf("Put over the network: %v", err)
	}
	if err := ReportObject(master.Addr(), "video", 3, 0); err != nil {
		t.Fatalf("ReportObject: %v", err)
	}
	if objs, err := ListObjects(master.Addr(), 0); err != nil || objs["video"] != 3 {
		t.Fatalf("ListObjects: %v %v", objs, err)
	}

	checkExact := func(phase string) {
		t.Helper()
		got, rep, err := s.Get("video")
		if err != nil {
			t.Fatalf("%s: Get: %v", phase, err)
		}
		if len(rep.LostSegments) > 0 {
			t.Fatalf("%s: lost segments %v", phase, rep.LostSegments)
		}
		for i, seg := range got {
			if !bytes.Equal(seg.Data, segs[i].Data) {
				t.Fatalf("%s: segment %d bytes differ", phase, i)
			}
		}
	}
	checkExact("healthy cluster")

	// Partial reads cross the wire too.
	seg, err := s.GetSegment("video", 4)
	if err != nil || !bytes.Equal(seg.Data, segs[4].Data) {
		t.Fatalf("GetSegment: %v", err)
	}

	// Kill one DataNode. Its nodes spread one per row (round-robin
	// placement), each within the R=1 per-row tolerance.
	victim := 2
	killedAt := time.Now()
	if err := servers[victim].Close(); err != nil {
		t.Fatalf("kill server: %v", err)
	}
	servers[victim] = nil

	// The master must fence the victim's nodes within the bound (plus
	// scheduling slack — the bound is about heartbeat silence, not
	// goroutine wakeup jitter).
	waitFor(t, liveness.DetectionBound()+time.Second, "master to detect the dead DataNode", func() bool {
		nm := master.NodeMap()
		for _, node := range split[victim] {
			if nm[node].State != StateDead {
				return false
			}
		}
		return true
	})
	if detection := time.Since(killedAt); detection > liveness.DetectionBound()+time.Second {
		t.Fatalf("detection took %v, bound is %v", detection, liveness.DetectionBound())
	}

	// Reads now degrade through planned reconstruction: same bytes, no
	// error. (The first read may burn retries while the client's health
	// FSM learns the node is gone; that cost is bounded by OpDeadline.)
	checkExact("degraded after kill")
	if rep := func() *store.GetReport {
		_, rep, err := s.Get("video")
		if err != nil {
			t.Fatalf("degraded Get: %v", err)
		}
		return rep
	}(); rep.ChecksumFailures > 0 {
		t.Fatalf("degraded read reported checksum failures: %+v", rep)
	}

	// Restart the DataNode on a fresh port with the same backend (its
	// columns survived, as with an intact disk).
	startServer(victim)
	waitFor(t, 2*time.Second, "restarted DataNode to rejoin", func() bool {
		nm := master.NodeMap()
		for _, node := range split[victim] {
			if nm[node].State != StateAlive {
				return false
			}
		}
		return true
	})
	if err := client.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap: %v", err)
	}
	// Give the client's probe-through a moment to walk the nodes back
	// to health, then verify clean serving.
	waitFor(t, 2*time.Second, "client health to recover", func() bool {
		for _, node := range split[victim] {
			if _, err := client.ReadColumn(node, "video", 0); err != nil {
				return false
			}
		}
		return true
	})
	checkExact("after rejoin")
}

// TestPartitionHeartbeatPath cuts only the control plane: DataNode
// heartbeats route through a chaos proxy that gets partitioned while
// the data plane stays reachable. The master must declare the node dead
// exactly once (no repeated repair triggers), the node must keep
// serving reads during the partition, and after healing it must rejoin
// under a fresh incarnation.
func TestPartitionHeartbeatPath(t *testing.T) {
	liveness := LivenessPolicy{
		Interval:      20 * time.Millisecond,
		SuspectMisses: 2,
		DeadMisses:    4,
		CheckEvery:    10 * time.Millisecond,
	}
	var rec deadRecorder
	master, err := NewMaster(MasterConfig{Liveness: liveness, OnDead: rec.onDead})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	defer master.Close()

	// Control-plane proxy: the server heartbeats "the master" through
	// it; data plane is direct.
	proxy, err := NewChaosProxy("127.0.0.1:0", master.Addr(), nil, nil)
	if err != nil {
		t.Fatalf("NewChaosProxy: %v", err)
	}
	defer proxy.Close()

	backend := NewMemBackend()
	if err := backend.WriteColumn(0, "obj", 0, []byte("still here")); err != nil {
		t.Fatalf("seed backend: %v", err)
	}
	srv, err := NewServer(ServerConfig{
		Backend:   backend,
		Nodes:     []int{0},
		Master:    proxy.Addr(),
		Heartbeat: liveness.Interval,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	waitFor(t, 2*time.Second, "node to register", func() bool {
		info, ok := master.NodeMap()[0]
		return ok && info.State == StateAlive
	})
	inc1 := master.NodeMap()[0].Incarnation

	client, err := Dial(ClientConfig{
		Nodes: map[int]string{0: srv.Addr()},
		Retry: RetryPolicy{Seed: 1, OpDeadline: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	// Partition the control plane.
	proxy.SetPartitioned(true)
	waitFor(t, liveness.DetectionBound()+2*time.Second, "master to declare the node dead", func() bool {
		return master.NodeMap()[0].State == StateDead
	})

	// The node is NOT dead — the data plane still serves.
	data, err := client.ReadColumn(0, "obj", 0)
	if err != nil || string(data) != "still here" {
		t.Fatalf("read during partition: %q %v", data, err)
	}

	// Let more sweeps pass: repair must have been triggered exactly once.
	time.Sleep(5 * liveness.CheckEvery)
	if rec.count() != 1 {
		t.Fatalf("OnDead fired %d times during partition, want 1", rec.count())
	}

	// Heal. The node's stale incarnation is refused; it re-registers and
	// rejoins under a new one.
	proxy.SetPartitioned(false)
	waitFor(t, 2*time.Second, "node to rejoin after healing", func() bool {
		info := master.NodeMap()[0]
		return info.State == StateAlive && info.Incarnation != inc1
	})
	if rec.count() != 1 {
		t.Fatalf("healing re-triggered repair: %d events", rec.count())
	}
}

// TestFileBackend exercises the disk-backed DataNode storage including
// restart persistence.
func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("NewFileBackend: %v", err)
	}
	if _, err := fb.ReadColumn(1, "video/a", 0); !errors.Is(err, chaos.ErrColumnMissing) {
		t.Fatalf("missing column: %v", err)
	}
	col := []byte("0123456789abcdef")
	if err := fb.WriteColumn(1, "video/a", 3, col); err != nil {
		t.Fatalf("WriteColumn: %v", err)
	}
	got, err := fb.ReadColumn(1, "video/a", 3)
	if err != nil || !bytes.Equal(got, col) {
		t.Fatalf("ReadColumn: %q %v", got, err)
	}
	part, err := fb.ReadColumnAt(1, "video/a", 3, 4, 6)
	if err != nil || string(part) != "456789" {
		t.Fatalf("ReadColumnAt: %q %v", part, err)
	}
	if _, err := fb.ReadColumnAt(1, "video/a", 3, 10, 10); !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range partial read: %v", err)
	}
	// "Restart": a fresh backend over the same directory sees the data.
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err = fb2.ReadColumn(1, "video/a", 3)
	if err != nil || !bytes.Equal(got, col) {
		t.Fatalf("after restart: %q %v", got, err)
	}
	nodes, err := fb2.Nodes()
	if err != nil || len(nodes) != 1 || nodes[0] != 1 {
		t.Fatalf("Nodes: %v %v", nodes, err)
	}
}

// TestBindError asserts a bind failure surfaces as a typed *BindError
// naming the role, not a log line.
func TestBindError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	_, err = NewServer(ServerConfig{
		Listen:  ln.Addr().String(),
		Backend: NewMemBackend(),
	})
	var be *BindError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BindError", err)
	}
	if be.Role != "datanode" || be.Addr != ln.Addr().String() || be.Unwrap() == nil {
		t.Fatalf("BindError fields: %+v", be)
	}
	if _, err := NewMaster(MasterConfig{Listen: ln.Addr().String()}); !errors.As(err, &be) || be.Role != "master" {
		t.Fatalf("master bind: %v", err)
	}
}

// TestClientDeadline asserts per-op context deadlines cut a stalled
// server off: a request against a black-holed endpoint returns
// ErrTimeout when its context expires, well before any transport
// timeout.
func TestClientDeadline(t *testing.T) {
	// A proxy with no healthy upstream, permanently partitioned: the
	// connection opens, the request is swallowed.
	proxy, err := NewChaosProxy("127.0.0.1:0", "127.0.0.1:1", nil, nil)
	if err != nil {
		t.Fatalf("NewChaosProxy: %v", err)
	}
	defer proxy.Close()
	proxy.SetPartitioned(true)

	client, err := Dial(ClientConfig{
		Nodes: map[int]string{0: proxy.Addr()},
		Retry: RetryPolicy{Seed: 1, OpDeadline: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = client.ReadColumnCtx(ctx, 0, "obj", 0)
	elapsed := time.Since(t0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("context deadline not honored: took %v", elapsed)
	}
}

// TestMasterFetchHelpers smoke-tests the remaining control RPCs against
// a live master.
func TestMasterFetchHelpers(t *testing.T) {
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	defer master.Close()
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("10.0.0.%d:7000", i)
		if _, err := RegisterNodes(master.Addr(), []int{i}, addr, 0); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	nm, err := FetchNodeMap(master.Addr(), 0)
	if err != nil || len(nm) != 3 {
		t.Fatalf("FetchNodeMap: %v %v", nm, err)
	}
	if nm[1].Addr != "10.0.0.1:7000" || nm[1].State != StateAlive {
		t.Fatalf("node 1 info: %+v", nm[1])
	}
}

// TestSegmentReadMovesExactBytesOverTCP: the exact-range segment read
// is the ReadAt RPC every backend already has, so over loopback TCP a
// healthy GetSegment moves the segment's own bytes in one RPC, not its
// sub-block.
func TestSegmentReadMovesExactBytesOverTCP(t *testing.T) {
	params := testParams()
	total := totalNodes(t, params)
	const nServers = 2
	routes := make(map[int]string, total)
	for i, nodes := range nodeSplit(total, nServers) {
		srv, err := NewServer(ServerConfig{Backend: NewMemBackend(), Nodes: nodes})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		defer srv.Close()
		for _, node := range nodes {
			routes[node] = srv.Addr()
		}
	}
	client, err := Dial(ClientConfig{Nodes: routes})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	reg := obs.NewRegistry(true)
	s, err := store.Open(store.Config{Code: params, NodeSize: 3 * 512, Backend: client, Obs: reg})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	// Twelve segments of at most 404 bytes: one per slot, none spills
	// out of its 512-byte sub-block, so each is a single extent.
	segs := testSegments(12)
	if err := s.Put("video", segs); err != nil {
		t.Fatalf("Put: %v", err)
	}
	readBytes := reg.Counter("store_node_read_bytes_total")
	partialReads := reg.Counter("store_partial_reads_total")
	for _, want := range segs {
		b0, p0 := readBytes.Value(), partialReads.Value()
		got, err := s.GetSegment("video", want.ID)
		if err != nil {
			t.Fatalf("GetSegment %d: %v", want.ID, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d differs", want.ID)
		}
		if moved, reads := readBytes.Value()-b0, partialReads.Value()-p0; moved != int64(len(want.Data)) || reads != 1 {
			t.Fatalf("segment %d: %d bytes in %d partial reads, want its own %d bytes in one", want.ID, moved, reads, len(want.Data))
		}
	}
}
