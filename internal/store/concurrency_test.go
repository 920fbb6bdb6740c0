package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// stressSecondsEnv scales the mixed-workload hammer: unset (or short
// mode) runs a quick smoke pass suitable for `go test ./...`; `make
// race-hammer` sets it to run the full-length stress under -race.
const stressSecondsEnv = "STORE_STRESS_SECONDS"

func stressDuration(t *testing.T) time.Duration {
	if v := os.Getenv(stressSecondsEnv); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("bad %s=%q", stressSecondsEnv, v)
		}
		return time.Duration(secs) * time.Second
	}
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return 1 * time.Second
}

// segPayload derives a segment's bytes deterministically from its
// identity, so any goroutine can verify any object without shared
// expected-value state.
func segPayload(object string, id, size, version int) []byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", object, id, version)
	seed := h.Sum64()
	out := make([]byte, size)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte(seed >> 56)
	}
	return out
}

func mkSegs(object string, n, size, version int) []store.Segment {
	segs := make([]store.Segment, n)
	for i := range segs {
		segs[i] = store.Segment{ID: i, Important: i%3 == 0, Data: segPayload(object, i, size, version)}
	}
	return segs
}

func verifyObject(t *testing.T, s *store.Store, name string, n, size, version int) {
	t.Helper()
	segs, rep, err := s.Get(name)
	if errors.Is(err, store.ErrOverloaded) {
		return // admission shed the read; nothing to verify
	}
	if err != nil {
		t.Errorf("Get %s: %v", name, err)
		return
	}
	if len(rep.LostSegments) != 0 {
		t.Errorf("Get %s: lost segments %v with at most one failed node", name, rep.LostSegments)
		return
	}
	if len(segs) != n {
		t.Errorf("Get %s: %d segments, want %d", name, len(segs), n)
		return
	}
	for _, seg := range segs {
		want := segPayload(name, seg.ID, size, version)
		if !bytes.Equal(seg.Data, want) {
			t.Errorf("Get %s segment %d: bytes diverge (version %d)", name, seg.ID, version)
			return
		}
	}
}

// TestConcurrentStressMixed is the high-concurrency hammer: putters,
// verifying getters, per-object updaters, a single-node fail/repair
// chaos loop, and a scrubber all run against one store, with admission
// control enabled. Every successful read must be byte-exact (one
// failed node is inside every tier's tolerance) and the Stats counters
// must stay monotonic throughout. Run under -race it doubles as the
// data-race proof for the sharded object map and group-commit journal.
func TestConcurrentStressMixed(t *testing.T) {
	cfg := storeConfig()
	cfg.MaxInFlight = 64
	cfg.AdmitWait = 20 * time.Millisecond
	cfg.CacheBytes = 1 << 20
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		segsPerObject = 4
		segSize       = 700
		staticObjects = 8
		mutable       = 4
	)
	for i := 0; i < staticObjects; i++ {
		name := fmt.Sprintf("static-%d", i)
		if err := s.Put(name, mkSegs(name, segsPerObject, segSize, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Mutable objects carry per-segment version counters; the per-object
	// mutex serializes its updater against its verifying readers, so a
	// read always knows which version of each segment to expect.
	// Cross-object operations stay fully concurrent — which is exactly
	// what the sharded map must survive.
	type mutObj struct {
		sync.Mutex
		versions [segsPerObject]int
	}
	muts := make([]*mutObj, mutable)
	for i := range muts {
		muts[i] = &mutObj{}
		name := fmt.Sprintf("mutable-%d", i)
		if err := s.Put(name, mkSegs(name, segsPerObject, segSize, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// verifyMutable compares a mutable object against its settled
	// per-segment versions; the caller holds the object's mutex.
	verifyMutable := func(i int) {
		name := fmt.Sprintf("mutable-%d", i)
		segs, rep, err := s.Get(name)
		if errors.Is(err, store.ErrOverloaded) {
			return
		}
		if err != nil {
			t.Errorf("Get %s: %v", name, err)
			return
		}
		if len(rep.LostSegments) != 0 {
			t.Errorf("Get %s: lost segments %v", name, rep.LostSegments)
			return
		}
		for _, seg := range segs {
			want := segPayload(name, seg.ID, segSize, muts[i].versions[seg.ID])
			if !bytes.Equal(seg.Data, want) {
				t.Errorf("Get %s segment %d: bytes diverge at version %d", name, seg.ID, muts[i].versions[seg.ID])
				return
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var putCount atomic.Int64

	// Putters: a stream of brand-new objects, each verified right after.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("p%d-%d", w, n)
				err := s.Put(name, mkSegs(name, 2, 300, 0))
				if errors.Is(err, store.ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Errorf("Put %s: %v", name, err)
					return
				}
				putCount.Add(1)
				verifyObject(t, s, name, 2, 300, 0)
			}
		}(w)
	}

	// Getters: hammer the static objects, byte-exact every time.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("static-%d", rng.Intn(staticObjects))
				verifyObject(t, s, name, segsPerObject, segSize, 0)
			}
		}(w)
	}

	// Updaters: bump one segment of one mutable object to its next
	// version. ErrUnavailable (failed nodes mid-chaos) and ErrOverloaded
	// are clean no-ops — UpdateSegment checks the healthy stripe set
	// before writing anything — so the model version only advances on
	// success.
	for w := 0; w < mutable; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("mutable-%d", w)
			mo := muts[w]
			rng := rand.New(rand.NewSource(int64(w) + 200))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sid := rng.Intn(segsPerObject)
				mo.Lock()
				next := mo.versions[sid] + 1
				err := s.UpdateSegment(name, sid, segPayload(name, sid, segSize, next))
				switch {
				case err == nil:
					mo.versions[sid] = next
				case errors.Is(err, store.ErrUnavailable), errors.Is(err, store.ErrOverloaded):
					// chaos window or shed — state unchanged
				default:
					t.Errorf("UpdateSegment %s/%d: %v", name, sid, err)
					mo.Unlock()
					return
				}
				mo.Unlock()
			}
		}(w)
	}

	// Mutable verifiers: lock the object's model, read, compare against
	// its settled per-segment versions.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 300))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(mutable)
				muts[i].Lock()
				verifyMutable(i)
				muts[i].Unlock()
			}
		}(w)
	}

	// Chaos: fail one node, repair, repeat. The victim is FIXED: a Put
	// racing a failure window leaves a hole on the victim that repair
	// only heals when that node is in the next run's failed set, so
	// rotating victims could accumulate holes across nodes and push a
	// stripe past its tolerance. One victim keeps every stripe at most
	// one erasure — reads must stay byte-exact throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim := rand.New(rand.NewSource(42)).Intn(s.Stats().Nodes)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.FailNodes(victim); err != nil {
				t.Errorf("FailNodes(%d): %v", victim, err)
				return
			}
			if _, err := s.RepairAll(); err != nil && !errors.Is(err, store.ErrRepairActive) {
				t.Errorf("RepairAll: %v", err)
				return
			}
		}
	}()

	// Scrubber.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Scrub(); err != nil {
				t.Errorf("Scrub: %v", err)
				return
			}
		}
	}()

	// Migrators: cycle static and mutable objects through redundancy
	// tiers while readers verify them and updaters mutate them. A
	// migration never changes logical bytes, so every concurrent read
	// must stay exact whichever side of the atomic tier swap it lands
	// on. ErrUnavailable is a clean no-op: migration refuses to run
	// with failed nodes, and the chaos goroutine keeps a failure window
	// open much of the time.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 400))
			levels := []tier.Level{tier.Warm, tier.Hot, tier.Cold}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var name string
				if rng.Intn(2) == 0 {
					name = fmt.Sprintf("static-%d", rng.Intn(staticObjects))
				} else {
					name = fmt.Sprintf("mutable-%d", rng.Intn(mutable))
				}
				err := s.MigrateObject(name, levels[rng.Intn(len(levels))])
				if err != nil && !errors.Is(err, store.ErrUnavailable) {
					t.Errorf("MigrateObject %s: %v", name, err)
					return
				}
			}
		}(w)
	}

	// Stats monotonicity: cumulative counters never decrease, and the
	// object count never drops (nothing deletes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev store.Stats
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			st := s.Stats()
			if st.Retries < prev.Retries || st.Hedges < prev.Hedges ||
				st.ChecksumFailures < prev.ChecksumFailures ||
				st.ShardsHealed < prev.ShardsHealed ||
				st.DegradedSubReads < prev.DegradedSubReads ||
				st.ReadErrors < prev.ReadErrors ||
				st.ChecksumDemotions < prev.ChecksumDemotions ||
				st.TierPromotions < prev.TierPromotions ||
				st.TierDemotions < prev.TierDemotions ||
				st.CacheHits < prev.CacheHits ||
				st.CacheMisses < prev.CacheMisses {
				t.Errorf("Stats counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.Objects < prev.Objects {
				t.Errorf("object count dropped: %d then %d", prev.Objects, st.Objects)
				return
			}
			prev = st
		}
	}()

	time.Sleep(stressDuration(t))
	close(stop)
	wg.Wait()

	// Settle: heal any trailing failure, then a final full sweep.
	if _, err := s.RepairAll(); err != nil && !errors.Is(err, store.ErrRepairActive) {
		t.Fatalf("final repair: %v", err)
	}
	for i := 0; i < staticObjects; i++ {
		verifyObject(t, s, fmt.Sprintf("static-%d", i), segsPerObject, segSize, 0)
	}
	for i := range muts {
		verifyMutable(i)
	}
	if got := int64(s.Stats().Objects); got != int64(staticObjects+mutable)+putCount.Load() {
		t.Fatalf("object count %d, want %d", got, int64(staticObjects+mutable)+putCount.Load())
	}
}

// gatedIO blocks reads of one designated object until released — a
// controllable "slow node" for the lock-scope and admission tests.
// Each read that hits the gate signals entered (buffered, best-effort)
// before blocking.
type gatedIO struct {
	inner   chaos.NodeIO
	slow    string
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedIO) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	if object == g.slow {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return g.inner.ReadColumn(node, object, stripe)
}

func (g *gatedIO) WriteColumn(node int, object string, stripe int, data []byte) error {
	return g.inner.WriteColumn(node, object, stripe, data)
}

// TestSlowGetDoesNotBlockPut is the critical-section regression test:
// a Get stalled inside node I/O (simulating a slow or degraded read)
// must not hold any lock a Put of an UNRELATED object needs. With the
// sharded object map and lookup-only critical section the Put completes
// while the Get is still blocked; before the refactor a global
// store-wide mutex could couple them.
func TestSlowGetDoesNotBlockPut(t *testing.T) {
	gio := &gatedIO{slow: "slowobj", gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	cfg := storeConfig()
	// Long deadline, no retries/hedging: the gated read must genuinely
	// pin its Get for the whole test, not time out around the gate.
	cfg.Retry = store.RetryPolicy{MaxAttempts: 1, OpDeadline: time.Minute, HedgeDelay: -1}
	cfg.WrapIO = func(io chaos.NodeIO) chaos.NodeIO { gio.inner = io; return gio }
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("slowobj", mkSegs("slowobj", 2, 400, 0)); err != nil {
		t.Fatal(err)
	}

	getDone := make(chan struct{})
	go func() {
		defer close(getDone)
		verifyObject(t, s, "slowobj", 2, 400, 0)
	}()
	select {
	case <-gio.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("Get never reached node I/O")
	}

	putDone := make(chan error, 1)
	go func() {
		putDone <- s.Put("fastobj", mkSegs("fastobj", 2, 400, 0))
	}()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("Put while Get blocked: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked behind a stalled Get of an unrelated object")
	}
	select {
	case <-getDone:
		t.Fatal("Get finished before release — the gate never pinned it")
	default:
	}
	close(gio.gate)
	<-getDone
	verifyObject(t, s, "fastobj", 2, 400, 0)
}

// TestAdmissionControlShedsLoad is the deterministic backpressure
// test: two Gets pinned inside node I/O occupy both in-flight slots,
// so a third operation must fail fast with the typed ErrOverloaded
// (matchable with errors.Is) without touching the store. Releasing the
// gate drains the limiter and operations flow again.
func TestAdmissionControlShedsLoad(t *testing.T) {
	gio := &gatedIO{slow: "obj", gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	cfg := storeConfig()
	cfg.MaxInFlight = 2
	cfg.AdmitWait = -1 // fail fast
	cfg.Retry = store.RetryPolicy{MaxAttempts: 1, OpDeadline: time.Minute, HedgeDelay: -1}
	cfg.WrapIO = func(io chaos.NodeIO) chaos.NodeIO { gio.inner = io; return gio }
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := "obj"
	if err := s.Put(name, mkSegs(name, 2, 400, 0)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Get(name); err != nil {
				t.Errorf("pinned Get: %v", err)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-gio.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("pinned Gets never reached node I/O")
		}
	}
	if g := s.Obs().Gauge("store_inflight_ops").Value(); g != 2 {
		t.Fatalf("in-flight gauge %d with both slots pinned, want 2", g)
	}
	// Both slots are held by the pinned reads: the limiter must shed
	// every operation type, immediately.
	if _, _, err := s.Get(name); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("Get at capacity: %v, want ErrOverloaded", err)
	}
	if err := s.Put("other", mkSegs("other", 1, 100, 0)); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("Put at capacity: %v, want ErrOverloaded", err)
	}
	if _, err := s.GetSegment(name, 0); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("GetSegment at capacity: %v, want ErrOverloaded", err)
	}
	if err := s.UpdateSegment(name, 0, segPayload(name, 0, 400, 1)); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("UpdateSegment at capacity: %v, want ErrOverloaded", err)
	}
	if got := s.Obs().Counter("store_overloaded_total").Value(); got != 4 {
		t.Fatalf("overloaded counter %d, want 4", got)
	}
	// The rejected Put must not have left a reserved name behind: once
	// capacity frees, the same Put succeeds.
	close(gio.gate)
	wg.Wait()
	if g := s.Obs().Gauge("store_inflight_ops").Value(); g != 0 {
		t.Fatalf("in-flight gauge stuck at %d after drain", g)
	}
	if err := s.Put("other", mkSegs("other", 1, 100, 0)); err != nil {
		t.Fatalf("Put after drain: %v", err)
	}
	verifyObject(t, s, name, 2, 400, 0)
}

// versionedPayload is a segment body that names its own version: the
// first eight bytes are the version, the rest is derived from it, so a
// reader can check a reply is entirely one version without knowing
// which one to expect.
func versionedPayload(object string, id, size, version int) []byte {
	out := segPayload(object, id, size, version)
	for i := 0; i < 8; i++ {
		out[i] = byte(uint64(version) >> (8 * i))
	}
	return out
}

func payloadVersion(data []byte) int {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(data[i]) << (8 * i)
	}
	return int(v)
}

// TestReadRacingUpdateIsNotCorruption: readers take no lock and an
// UpdateSegment writes its columns before it publishes their checksums,
// so a read of the same object can see bytes and checksums that
// disagree. That is an update in flight, not damage: the read must wait
// for the update and return entirely-old or entirely-new bytes, and
// must not demote the (healthy) node. Before the read-vs-update rule a
// few seconds of this drove a data node to HealthFailed — its reads
// refused until RepairAll — and failed ~1% of GetSegments on a fully
// redundant object.
func TestReadRacingUpdateIsNotCorruption(t *testing.T) {
	const (
		name  = "video"
		nSegs = 60
		size  = 400 // of a 512-byte sub-block: every slot's second segment spills
	)
	s, err := store.Open(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]store.Segment, nSegs)
	for i := range segs {
		segs[i] = store.Segment{ID: i, Important: i%3 == 0, Data: versionedPayload(name, i, size, 0)}
	}
	if err := s.Put(name, segs); err != nil {
		t.Fatal(err)
	}
	// One early segment (a single extent) and one late one (spilled over
	// two stripes, so a reply can tear between them).
	targets := []int{1, nSegs - 1}
	checkReply := func(seg store.Segment) {
		if len(seg.Data) != size {
			t.Errorf("segment %d: %d bytes, want %d", seg.ID, len(seg.Data), size)
			return
		}
		v := payloadVersion(seg.Data)
		if !bytes.Equal(seg.Data, versionedPayload(name, seg.ID, size, v)) {
			t.Errorf("segment %d: reply claims version %d but is not entirely that version", seg.ID, v)
		}
	}
	deadline := time.Now().Add(stressDuration(t))
	var wg sync.WaitGroup
	var updates, reads atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; time.Now().Before(deadline); v++ {
			id := targets[v%len(targets)]
			if err := s.UpdateSegment(name, id, versionedPayload(name, id, size, v)); err != nil {
				t.Errorf("UpdateSegment %d v%d: %v", id, v, err)
				return
			}
			updates.Add(1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i%16 == 15 {
					got, rep, err := s.Get(name)
					if err != nil || len(rep.LostSegments) != 0 {
						t.Errorf("Get: %v, lost %v", err, rep)
						return
					}
					for _, seg := range got {
						checkReply(seg)
					}
					continue
				}
				seg, err := s.GetSegment(name, targets[(i+r)%len(targets)])
				if err != nil {
					t.Errorf("GetSegment: %v", err)
					return
				}
				checkReply(seg)
				reads.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rep, err := s.Scrub()
			if err != nil || rep.ChecksumFailures != 0 || len(rep.Corrupt) != 0 {
				t.Errorf("scrub of healthy bytes: %+v, %v", rep, err)
				return
			}
		}
	}()
	wg.Wait()
	if updates.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("no overlap exercised: %d updates, %d reads", updates.Load(), reads.Load())
	}
	st := s.Stats()
	if st.ChecksumDemotions != 0 || st.ChecksumFailures != 0 {
		t.Fatalf("%d updates racing %d reads: %d demotions, %d checksum failures, want none",
			updates.Load(), reads.Load(), st.ChecksumDemotions, st.ChecksumFailures)
	}
	for ni, h := range s.NodeHealth() {
		if h != store.HealthHealthy {
			t.Fatalf("node %d is %v after racing reads and updates", ni, h)
		}
	}
}
