package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/chaos/chaostest"
	"approxcode/internal/chaos/crashtest"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// The store crash matrix: a fixed workload of journaled mutations
// (open, put, save, put, update, fail, repair) is killed at every
// registered crash point — journal appends, mid-write, snapshot steps,
// repair checkpoints — and recovered from the directory alone. The
// invariants, per ISSUE acceptance:
//
//   - recovery always succeeds once anything was acknowledged;
//   - every acknowledged operation's effect is present and byte-exact;
//   - an unacknowledged in-flight operation is all-or-nothing: absent,
//     or applied exactly — never torn.

func crashSegsA() []store.Segment { return chaostest.GenSegments(41, 8, 3) }
func crashSegsB() []store.Segment { return chaostest.GenSegments(42, 6, 2) }

func crashUpdateData() []byte {
	segs := crashSegsA()
	return bytes.Repeat([]byte{0xAB}, len(segs[0].Data))
}

func crashWorkload(t *testing.T, dir string, c *chaos.Crasher, log *crashtest.Log) {
	cfg := storeConfig()
	cfg.Crasher = c
	st, _, err := store.OpenDurable(dir, cfg)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	defer st.Close()
	log.Acked("open")
	if err := st.Put("a", crashSegsA()); err != nil {
		t.Fatalf("put a: %v", err)
	}
	log.Acked("put:a")
	if err := st.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	log.Acked("save")
	if err := st.Put("b", crashSegsB()); err != nil {
		t.Fatalf("put b: %v", err)
	}
	log.Acked("put:b")
	if err := st.MigrateObject("b", tier.Cold); err != nil {
		t.Fatalf("migrate b: %v", err)
	}
	log.Acked("migrate:b-cold")
	segsA := crashSegsA()
	if err := st.UpdateSegment("a", segsA[0].ID, crashUpdateData()); err != nil {
		t.Fatalf("update: %v", err)
	}
	log.Acked("update:a")
	if err := st.MigrateObject("a", tier.Hot); err != nil {
		t.Fatalf("migrate a: %v", err)
	}
	log.Acked("migrate:a-hot")
	victim := st.Code().DataNodeIndexes()[1]
	if err := st.FailNodes(victim); err != nil {
		t.Fatalf("fail: %v", err)
	}
	log.Acked("fail")
	if _, err := st.RepairAll(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	log.Acked("repair")
}

// checkObject asserts the object's segments read back byte-exact.
// wantUpdate selects whether segment 0 must carry the updated bytes
// (true), the original (false), or may carry either (nil).
func checkObject(t *testing.T, st *store.Store, name string, want []store.Segment, wantUpdate *bool) {
	t.Helper()
	got, rep, err := st.Get(name)
	if err != nil {
		t.Fatalf("get %q: %v", name, err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("get %q lost segments %v", name, rep.LostSegments)
	}
	if len(got) != len(want) {
		t.Fatalf("get %q: %d segments, want %d", name, len(got), len(want))
	}
	upd := crashUpdateData()
	for i, seg := range got {
		expect := want[i].Data
		if i == 0 && wantUpdate != nil {
			if *wantUpdate {
				expect = upd
			}
			if !bytes.Equal(seg.Data, expect) && (*wantUpdate || !bytes.Equal(seg.Data, upd)) {
				t.Fatalf("%q segment %d: neither pre- nor post-update bytes survive", name, seg.ID)
			}
			if *wantUpdate && !bytes.Equal(seg.Data, upd) {
				t.Fatalf("%q segment %d lost the acknowledged update", name, seg.ID)
			}
			continue
		}
		if !bytes.Equal(seg.Data, expect) {
			t.Fatalf("%q segment %d bytes differ after recovery", name, seg.ID)
		}
	}
}

// checkTier asserts an object's recovered tier is exactly the target
// when the migration was acknowledged, and one of {from, to} — never
// anything else — while it was in flight.
func checkTier(t *testing.T, st *store.Store, name string, acked bool, from, to tier.Level, point string, hit int) {
	t.Helper()
	lvl, ok := st.ObjectTier(name)
	if !ok {
		return // object itself still unverified/absent: covered elsewhere
	}
	if acked && lvl != to {
		t.Fatalf("%q tier = %v after acknowledged migration to %v (%s#%d)", name, lvl, to, point, hit)
	}
	if !acked && lvl != from && lvl != to {
		t.Fatalf("%q tier = %v, want %v or %v (%s#%d)", name, lvl, from, to, point, hit)
	}
}

func crashVerify(t *testing.T, dir string, log *crashtest.Log, point string, hit int) {
	st, _, err := store.Recover(dir, store.LoadOptions{Lenient: true})
	if err != nil {
		// Only tolerable before the very first acknowledgement: the
		// kill may predate the initial snapshot generation.
		if len(log.List()) == 0 {
			return
		}
		t.Fatalf("recover after %s#%d with acked ops %v: %v", point, hit, log.List(), err)
	}
	defer st.Close()
	names := st.Objects()
	has := func(n string) bool {
		for _, v := range names {
			if v == n {
				return true
			}
		}
		return false
	}
	updAcked := log.Has("update:a")
	wantUpdate := &updAcked
	if log.Has("put:a") {
		if !has("a") {
			t.Fatalf("acknowledged object a missing after %s#%d", point, hit)
		}
	}
	if has("a") {
		// Present (acked or replayed in-flight): bytes must be exact,
		// with the update visible iff acknowledged (either version is
		// legal while the update was in flight).
		checkObject(t, st, "a", crashSegsA(), wantUpdate)
	} else if updAcked {
		t.Fatalf("update acknowledged but object a missing after %s#%d", point, hit)
	}
	if log.Has("put:b") && !has("b") {
		t.Fatalf("acknowledged object b missing after %s#%d", point, hit)
	}
	if has("b") {
		checkObject(t, st, "b", crashSegsB(), nil)
	}
	// Tier invariant: an object recovers to entirely the old or entirely
	// the new encoding. An acknowledged migration must be visible; an
	// in-flight one may land either way (checkObject above already
	// proved the bytes are exact under whichever tier survived).
	checkTier(t, st, "a", log.Has("migrate:a-hot"), tier.Warm, tier.Hot, point, hit)
	checkTier(t, st, "b", log.Has("migrate:b-cold"), tier.Warm, tier.Cold, point, hit)
	if log.Has("repair") && len(st.FailedNodes()) != 0 {
		t.Fatalf("acknowledged repair left failed nodes %v after %s#%d", st.FailedNodes(), point, hit)
	}
}

// TestCrashMatrix is the full kill-and-recover sweep.
func TestCrashMatrix(t *testing.T) {
	crashtest.Matrix(t, crashtest.Scenario{
		Workload: crashWorkload,
		Verify:   crashVerify,
	})
}

// TestCrashRecoverIsRepeatable: recovering twice (a crash during the
// first recovery's journal replay leaves the directory untouched) gives
// the same state — replay is idempotent and read-only until the journal
// reattaches.
func TestCrashRecoverIsRepeatable(t *testing.T) {
	dir := t.TempDir()
	c := chaos.NewCrasher()
	log := &crashtest.Log{}
	c.Arm("put.mid-write", 1)
	if ce := c.Run(func() { crashWorkload(t, dir, c, log) }); ce == nil {
		t.Fatal("expected a crash at put.mid-write")
	}
	c.Disarm()
	for i := 0; i < 2; i++ {
		st, rep, err := store.Recover(dir, store.LoadOptions{Lenient: true})
		if err != nil {
			t.Fatalf("recover #%d: %v", i+1, err)
		}
		if rep.ReplayedOps == 0 {
			t.Fatalf("recover #%d replayed nothing; report %+v", i+1, rep)
		}
		checkObject(t, st, "a", crashSegsA(), nil)
		if err := st.Close(); err != nil {
			t.Fatalf("close #%d: %v", i+1, err)
		}
	}
}

// TestCrashConcurrentPutsTornBatch extends the matrix to group commit:
// several clients Put at once, so journal batches hold more than one
// record, and the leader is killed at the torn-append point (the
// batch's byte midpoint — inside a record or between two) or at the
// batch boundary before the sync. Whichever client happened to lead
// dies; the others must come back with an error — not hang on a leader
// that no longer exists — and after Recover every acknowledged Put is
// present byte-exact while an unacknowledged one is absent or exact.
func TestCrashConcurrentPutsTornBatch(t *testing.T) {
	const clients, perClient = 4, 6
	for _, point := range []string{"journal.append.torn", "journal.batch.before-sync"} {
		for _, hit := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s#%d", point, hit), func(t *testing.T) {
				dir := t.TempDir()
				c := chaos.NewCrasher()
				cfg := storeConfig()
				cfg.Crasher = c
				st, _, err := store.OpenDurable(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				c.Arm(point, hit)
				log := &crashtest.Log{}
				name := func(cl, i int) string { return fmt.Sprintf("c%d-%d", cl, i) }
				segs := func(cl, i int) []store.Segment { return chaostest.GenSegments(int64(100*cl+i), 5, 2) }
				var wg sync.WaitGroup
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_ = c.Run(func() {
							for i := 0; i < perClient; i++ {
								if err := st.Put(name(cl, i), segs(cl, i)); err != nil {
									return // the journal died under another client
								}
								log.Acked(name(cl, i))
							}
						})
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("clients hung after the batch leader was killed")
				}
				if !c.Fired() {
					t.Skipf("%s hit %d not reached", point, hit)
				}
				_ = st.Close()
				c.Disarm()

				rec, _, err := store.Recover(dir, store.LoadOptions{Lenient: true})
				if err != nil {
					t.Fatalf("recover with acked %v: %v", log.List(), err)
				}
				defer rec.Close()
				present := make(map[string]bool)
				for _, n := range rec.Objects() {
					present[n] = true
				}
				for cl := 0; cl < clients; cl++ {
					for i := 0; i < perClient; i++ {
						n := name(cl, i)
						if log.Has(n) && !present[n] {
							t.Fatalf("acknowledged object %s missing after recovery", n)
						}
						if present[n] {
							checkObject(t, rec, n, segs(cl, i), nil)
						}
					}
				}
			})
		}
	}
}
