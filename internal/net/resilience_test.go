package netio

import (
	"context"
	"errors"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
	"approxcode/internal/resilience"
	"approxcode/internal/store"
)

// TestTimeoutMatchesLocalAndRemote: a write that stalls past the op
// deadline fails UpdateSegment with one error taxonomy wherever the
// stall happens — a black-holed DataNode behind a netio.Client, or a
// straggler injected in process. store.ErrTimeout, netio.ErrTimeout
// and chaos.ErrTimeout are one value, and the context error rides
// along.
func TestTimeoutMatchesLocalAndRemote(t *testing.T) {
	segs := testSegments(9)
	update := func(t *testing.T, s *store.Store) {
		t.Helper()
		err := s.UpdateSegment("video", 0, make([]byte, len(segs[0].Data)))
		for _, want := range []error{store.ErrTimeout, ErrTimeout, chaos.ErrTimeout, context.DeadlineExceeded} {
			if !errors.Is(err, want) {
				t.Fatalf("UpdateSegment over a stalled write: %v, does not match %v", err, want)
			}
		}
	}

	t.Run("remote", func(t *testing.T) {
		srv, err := NewServer(ServerConfig{Backend: NewMemBackend()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		inj := chaos.NewInjector(1)
		proxy, err := NewChaosProxy("127.0.0.1:0", srv.Addr(), inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		routes := make(map[int]string)
		for node := 0; node < totalNodes(t, testParams()); node++ {
			routes[node] = proxy.Addr()
		}
		client, err := Dial(ClientConfig{Nodes: routes,
			Retry: RetryPolicy{Seed: 1, OpDeadline: 100 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		s, err := store.Open(store.Config{Code: testParams(), NodeSize: 1536, Backend: client})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("video", segs); err != nil {
			t.Fatal(err)
		}
		// From here every write is swallowed: the DataNode is alive and
		// silent, the client's deadline expires.
		inj.AddRules(chaos.Rule{Node: chaos.Any, Stripe: chaos.Any, Op: chaos.OpWrite, Kind: chaos.FaultPartition})
		update(t, s)
	})

	t.Run("in-process", func(t *testing.T) {
		inj := chaos.NewInjector(1)
		s, err := store.Open(store.Config{Code: testParams(), NodeSize: 1536, WrapIO: inj.Wrap,
			Retry: store.RetryPolicy{OpDeadline: 100 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("video", segs); err != nil {
			t.Fatal(err)
		}
		inj.AddRules(chaos.Rule{Node: chaos.Any, Stripe: chaos.Any, Op: chaos.OpWrite,
			Kind: chaos.FaultLatency, Latency: time.Hour})
		update(t, s)
	})
}

// TestDeadDataNodeFailsFastWithoutBackoff: once the dial circuit is
// open, a read of a dead DataNode is one fast failure — the transport
// says the node is unavailable and the wrapper neither retries nor
// sleeps (backoffs here are 100ms+, so one sleep would show).
func TestDeadDataNodeFailsFastWithoutBackoff(t *testing.T) {
	backend := NewMemBackend()
	if err := backend.WriteColumn(0, "obj", 0, []byte("column")); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(false)
	client, err := Dial(ClientConfig{Nodes: map[int]string{0: srv.Addr()}, Obs: reg,
		Retry: RetryPolicy{Seed: 1, BaseBackoff: 200 * time.Millisecond, MaxBackoff: 200 * time.Millisecond,
			RedialBackoff: time.Minute, DialTimeout: 100 * time.Millisecond, OpDeadline: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ReadColumn(0, "obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The first read after the death finds the stale pooled socket
	// (retried on a fresh connection), then the refused dial opens the
	// circuit.
	if _, err := client.ReadColumn(0, "obj", 0); !errors.Is(err, chaos.ErrNodeUnavailable) {
		t.Fatalf("first read of the dead node: %v, want ErrNodeUnavailable", err)
	}
	retries := reg.Counter("netio_client_retries_total")
	dials := reg.Counter("netio_client_dials_total")
	r0, d0 := retries.Value(), dials.Value()
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := client.ReadColumn(0, "obj", 0); !errors.Is(err, chaos.ErrNodeUnavailable) {
			t.Fatalf("read %d with the circuit open: %v, want ErrNodeUnavailable", i, err)
		}
	}
	if el := time.Since(t0); el > 90*time.Millisecond {
		t.Fatalf("three circuit-open reads took %v: something slept", el)
	}
	if retries.Value() != r0 || dials.Value() != d0 {
		t.Fatalf("circuit-open reads moved retries %d→%d, dials %d→%d", r0, retries.Value(), d0, dials.Value())
	}
	if got := client.health.State(0); got != resilience.Healthy {
		t.Fatalf("a node known to be down was also penalised by the FSM: %v", got)
	}
}

// TestBrokenConnectionIsRetried is the other half: a connection reset
// under the exchange (a count-limited crash at the proxy) is transient
// — retried on a fresh connection, and the read succeeds.
func TestBrokenConnectionIsRetried(t *testing.T) {
	backend := NewMemBackend()
	if err := backend.WriteColumn(0, "obj", 0, []byte("column")); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj := chaos.NewInjector(1, chaos.Rule{Node: 0, Stripe: chaos.Any, Op: chaos.OpRead, Kind: chaos.FaultCrash, Count: 1})
	proxy, err := NewChaosProxy("127.0.0.1:0", srv.Addr(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	reg := obs.NewRegistry(false)
	client, err := Dial(ClientConfig{Nodes: map[int]string{0: proxy.Addr()}, Obs: reg,
		Retry: RetryPolicy{Seed: 1, HedgeDelay: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data, err := client.ReadColumn(0, "obj", 0)
	if err != nil || string(data) != "column" {
		t.Fatalf("read through one dropped connection: %q, %v", data, err)
	}
	if got := reg.Counter("netio_client_retries_total").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := reg.Counter("netio_client_read_total").Value(); got != 1 {
		t.Fatalf("client reads = %d, want 1 operation however many attempts", got)
	}
}
