package store_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/chaos/chaostest"
	"approxcode/internal/core"
	"approxcode/internal/store"
)

// TestChaosCorruptionWithinTolerance: a node silently flips bits on
// every read. The checksum layer demotes its columns to erasures and
// every byte still reads back exactly — the paper's fault tolerance (r
// for unimportant, r+g for important sub-stripes) absorbs one node.
func TestChaosCorruptionWithinTolerance(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:     11,
		Schedule: "node=2,op=read,fault=corrupt,bytes=2",
	})
	if len(out.FirstRead.LostSegments) != 0 {
		t.Fatalf("within-tolerance corruption lost segments: %v", out.FirstRead.LostSegments)
	}
	if out.FirstRead.ChecksumFailures == 0 {
		t.Fatal("corruption went undetected")
	}
	if out.Injector.Stats().CorruptReads == 0 {
		t.Fatal("injector never fired")
	}
	if st := out.Store.Stats(); st.ChecksumFailures == 0 || st.DegradedSubReads == 0 {
		t.Fatalf("stats missed the demotions: %+v", st)
	}
}

// TestChaosBeyondToleranceApproximate: two corrupting nodes inside the
// same local stripe exceed the unimportant tolerance (r=1) but stay
// within the important one (r+g=3): unimportant segments come back
// zero-filled and flagged approximate, important ones exact.
func TestChaosBeyondToleranceApproximate(t *testing.T) {
	// Find two data nodes of local stripe 0 via a throwaway store.
	probe, err := store.Open(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	code := probe.Code()
	// Pick a local stripe that owns unimportant rows (in the Uneven
	// structure the important rows concentrate on one stripe), then two
	// of its data nodes.
	params := code.Params()
	target := -1
	for l := 0; l < params.H && target < 0; l++ {
		for m := 0; m < params.H; m++ {
			if !code.Important(l, m) {
				target = l
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no unimportant sub-stripes in test code")
	}
	var group []int
	for _, ni := range code.DataNodeIndexes() {
		if code.StripeOf(ni) == target {
			group = append(group, ni)
		}
		if len(group) == 2 {
			break
		}
	}
	out := chaostest.Run(t, chaostest.Scenario{
		Seed: 12,
		Rules: []chaos.Rule{
			{Node: group[0], Stripe: chaos.Any, Op: chaos.OpRead, Kind: chaos.FaultCorrupt},
			{Node: group[1], Stripe: chaos.Any, Op: chaos.OpRead, Kind: chaos.FaultCorrupt},
		},
	})
	if len(out.FirstRead.Approximate) == 0 {
		t.Fatal("beyond-tolerance unimportant loss not flagged approximate")
	}
	// Every lost segment must be unimportant (harness enforces exactness
	// and flagging; this checks the loss set is not empty noise).
	if len(out.FirstRead.LostSegments) != len(out.FirstRead.Approximate) {
		t.Fatalf("important data lost: lost=%v approx=%v",
			out.FirstRead.LostSegments, out.FirstRead.Approximate)
	}
}

// TestChaosTransientNodeNeverFailsReads: a 30% flaky node must cause
// zero failed or lost reads — only elevated retry counters.
func TestChaosTransientNodeNeverFailsReads(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:     13,
		Schedule: "node=1,fault=transient,rate=0.3",
		Retry:    store.RetryPolicy{MaxAttempts: 6, BaseBackoff: 50 * time.Microsecond, HedgeDelay: -1},
		// Generous thresholds so a 30% error rate never condemns the node.
		Health: store.HealthPolicy{SuspectAfter: 4, FailAfter: 1000, ProbationOK: 2},
	})
	if len(out.FirstRead.LostSegments) != 0 || len(out.FinalRead.LostSegments) != 0 {
		t.Fatalf("transient faults lost data: first=%v final=%v",
			out.FirstRead.LostSegments, out.FinalRead.LostSegments)
	}
	st := out.Store.Stats()
	if st.Retries == 0 {
		t.Fatal("30% transient node produced no retries")
	}
	if st.DownNodes != 0 {
		t.Fatalf("flaky node wrongly health-failed: %+v", st)
	}
}

// TestChaosTornWriteHealedByScrub: torn (partial) writes during ingest
// leave truncated columns; reads demote the ones their plans touch,
// scrub's full-width verification catches the rest, the scrubber
// rebuilds them once the fault is cleared, and after healing reads are
// exact. (Minimal-read planning means a healthy Get no longer touches
// columns it does not need, so first-read demotes alone are not
// guaranteed — detection must happen by scrub at the latest.)
func TestChaosTornWriteHealedByScrub(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:              14,
		Schedule:          "node=3,op=write,fault=torn,keep=0.5",
		ClearBeforeRepair: true,
	})
	if out.FirstRead.ChecksumFailures == 0 && out.Scrub.ChecksumFailures == 0 {
		t.Fatal("torn columns never demoted (neither read nor scrub)")
	}
	if len(out.FirstRead.LostSegments) != 0 {
		t.Fatalf("one torn node lost segments: %v", out.FirstRead.LostSegments)
	}
	if out.Scrub.Healed == 0 && out.Repair.ShardsHealed == 0 {
		t.Fatalf("torn columns never healed: scrub=%+v repair=%+v", out.Scrub, out.Repair)
	}
	if out.FinalRead.ChecksumFailures != 0 {
		t.Fatalf("final read still demoting after heal: %+v", out.FinalRead)
	}
}

// TestChaosPermanentErrorDrivesHealthFSM: a node that errors on every
// I/O walks healthy → suspect → failed within the configured
// thresholds; reads stay exact throughout; after the faulty hardware is
// replaced (rules cleared) repair rebuilds it back to healthy.
func TestChaosPermanentErrorDrivesHealthFSM(t *testing.T) {
	inj := chaos.NewInjector(15, chaos.Rule{Node: 2, Stripe: chaos.Any, Kind: chaos.FaultTransient})
	cfg := storeConfig()
	cfg.WrapIO = inj.Wrap
	cfg.Retry = store.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Microsecond, HedgeDelay: -1, Seed: 15}
	cfg.Health = store.HealthPolicy{SuspectAfter: 2, FailAfter: 5, ProbationOK: 3}
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := chaostest.GenSegments(15, 12, 4)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	// Ingest writes already hit the erroring node; drive reads until the
	// FSM condemns it (bounded so a bug cannot hang the test).
	var state store.HealthState
	for i := 0; i < 20; i++ {
		got, rep, err := s.Get("video")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.LostSegments) != 0 {
			t.Fatalf("read %d lost segments: %v", i, rep.LostSegments)
		}
		for j, seg := range got {
			if !bytes.Equal(seg.Data, segs[j].Data) {
				t.Fatalf("read %d: segment %d corrupted", i, seg.ID)
			}
		}
		if state = s.NodeHealth()[2]; state == store.HealthFailed {
			break
		}
	}
	if state != store.HealthFailed {
		t.Fatalf("permanently erroring node never condemned: %v", state)
	}
	if st := s.Stats(); st.DownNodes != 1 {
		t.Fatalf("DownNodes=%d, want 1: %+v", st.DownNodes, st)
	}
	// Replace the faulty hardware and rebuild.
	inj.ClearNode(2)
	rep, err := s.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsHealed == 0 {
		t.Fatalf("repair rebuilt nothing: %+v", rep)
	}
	if got := s.NodeHealth()[2]; got != store.HealthHealthy {
		t.Fatalf("node not healthy after repair: %v", got)
	}
	got, gr, err := s.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.LostSegments) != 0 || gr.ChecksumFailures != 0 {
		t.Fatalf("post-repair read degraded: %+v", gr)
	}
	for j, seg := range got {
		if !bytes.Equal(seg.Data, segs[j].Data) {
			t.Fatalf("post-repair segment %d corrupted", seg.ID)
		}
	}
}

// TestChaosHedgedReadBeatsStraggler: the first read of a straggling
// node sleeps far past the hedge delay; the hedged attempt (the rule's
// single firing already spent) answers first and wins.
func TestChaosHedgedReadBeatsStraggler(t *testing.T) {
	inj := chaos.NewInjector(16, chaos.Rule{
		Node: 1, Stripe: chaos.Any, Op: chaos.OpRead,
		Kind: chaos.FaultLatency, Latency: 50 * time.Millisecond, Count: 1,
	})
	cfg := storeConfig()
	cfg.WrapIO = inj.Wrap
	cfg.Retry = store.RetryPolicy{HedgeDelay: 1 * time.Millisecond, OpDeadline: 2 * time.Second, Seed: 16}
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := chaostest.GenSegments(16, 8, 4)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("straggler lost segments: %v", rep.LostSegments)
	}
	for j, seg := range got {
		if !bytes.Equal(seg.Data, segs[j].Data) {
			t.Fatalf("segment %d corrupted", seg.ID)
		}
	}
	st := s.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedging never engaged: %+v", st)
	}
}

// TestChaosRandomizedCycles runs seeded randomized fault schedules
// (plus one crashed node) through full ingest → degraded-read → repair
// → scrub cycles. The harness asserts the exact-or-flagged contract on
// every read; here we only pick the seeds.
func TestChaosRandomizedCycles(t *testing.T) {
	nodes := 14 // total shards of the default RS(3,1,2)/h=3 code
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		sc := chaostest.Scenario{
			Seed:              seed,
			Rules:             chaostest.RandomRules(rng, nodes, 2),
			FailNodes:         []int{rng.Intn(nodes)},
			ClearBeforeRepair: true,
		}
		out := chaostest.Run(t, sc)
		// After clearing faults and repairing, nothing may still be
		// demoting: the final read is clean-path.
		if out.FinalRead.ChecksumFailures != 0 {
			t.Fatalf("seed %d: final read still demoting: %+v", seed, out.FinalRead)
		}
	}
}

// TestChaosPlannedReadEscalation: a corrupting node sits inside the
// minimal read plans, so planned reads demote it and must escalate —
// widen the erased set, re-plan, decode — without ever returning wrong
// bytes. The harness enforces exact-or-flagged on every phase; here we
// additionally drive GetSegment (the partial-read fast path) against
// the live injector and require exact bytes from every segment.
func TestChaosPlannedReadEscalation(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:              31,
		Schedule:          "node=0,op=read,fault=corrupt,bytes=2",
		ClearBeforeRepair: true,
	})
	if out.FirstRead.ChecksumFailures == 0 {
		t.Fatal("corrupting node inside the plan never demoted")
	}
	if st := out.Store.Stats(); st.DegradedSubReads == 0 {
		t.Fatalf("escalation never decoded around the demoted node: %+v", st)
	}
	// Re-arm the fault (ClearBeforeRepair dropped it) and walk the
	// segment fast path through the same ladder.
	out.Injector.AddRules(chaos.Rule{
		Node: 0, Stripe: chaos.Any, Op: chaos.OpRead, Kind: chaos.FaultCorrupt, Bytes: 2,
	})
	for _, want := range out.Segments {
		got, err := out.Store.GetSegment("video", want.ID)
		if err != nil {
			t.Fatalf("segment %d: %v", want.ID, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d silently corrupted through escalation", want.ID)
		}
	}
}

// TestChaosPartialReadCorruption: a rule gated to op=readat corrupts
// only partial-column reads, leaving whole-column reads clean. The
// harness phases (Get-based) must sail through untouched; GetSegment
// must catch the corruption on the per-sub-block checksum and escalate
// to exact bytes.
func TestChaosPartialReadCorruption(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:     32,
		Schedule: "node=1,op=readat,fault=corrupt,bytes=1",
	})
	if out.FirstRead.ChecksumFailures != 0 {
		t.Fatalf("readat-gated rule fired on whole-column reads: %+v", out.FirstRead)
	}
	for _, want := range out.Segments {
		got, err := out.Store.GetSegment("video", want.ID)
		if err != nil {
			t.Fatalf("segment %d: %v", want.ID, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d silently corrupted via partial read", want.ID)
		}
	}
	if out.Injector.Stats().CorruptReads == 0 {
		t.Fatal("readat rule never fired — partial reads not reaching the injector")
	}
}

// TestChaosTornColumnUnderExactRangeReads: a torn (truncated) write
// leaves a data node's columns short. Exact-range segment reads that fall
// inside the kept half are served as-is (their segment sums verify);
// those that reach past it fail the read and go down the ladder. Every
// segment must come back byte-exact either way.
func TestChaosTornColumnUnderExactRangeReads(t *testing.T) {
	inj := chaos.NewInjector(34)
	cfg := storeConfig()
	cfg.WrapIO = inj.Wrap
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj.AddRules(chaos.Rule{
		Node: s.Code().DataNodeIndexes()[0], Stripe: chaos.Any,
		Op: chaos.OpWrite, Kind: chaos.FaultTorn, KeepFraction: 0.5,
	})
	segs := chaostest.GenSegments(35, 40, 4)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().TornWrites == 0 {
		t.Fatal("torn rule never fired")
	}
	for _, want := range segs {
		got, err := s.GetSegment("video", want.ID)
		if err != nil {
			t.Fatalf("segment %d: %v", want.ID, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d silently corrupted by a torn column", want.ID)
		}
	}
	if st := s.Stats(); st.DegradedSubReads == 0 {
		t.Fatalf("no read ever reached past the tear: %+v", st)
	}
}

// storeConfig mirrors the internal test config for the external
// (store_test) package.
func storeConfig() store.Config {
	return store.Config{
		Code: core.Params{
			Family: core.FamilyRS, K: 3, R: 1, G: 2, H: 3, Structure: core.Uneven,
		},
		NodeSize: 3 * 512,
	}
}

// flipByteInFile XORs one byte of a file in place.
func flipByteInFile(t *testing.T, dir, name string, off int) {
	t.Helper()
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(raw) {
		t.Fatalf("file %s too short (%d bytes) to flip offset %d", name, len(raw), off)
	}
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosLoadWithLenientHealsCorruptNodeFile is the persistence leg:
// a bit-flipped node file fails strict Load with ErrCorrupted but loads
// leniently as a failed node that repair rebuilds.
func TestChaosLoadWithLenientHealsCorruptNodeFile(t *testing.T) {
	s, err := store.Open(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	segs := chaostest.GenSegments(17, 10, 4)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	flipByteInFile(t, dir, "node002.00000001.gob", 20)
	if _, err := store.Load(dir); !errors.Is(err, store.ErrCorrupted) {
		t.Fatalf("strict load of corrupt node file: %v, want ErrCorrupted", err)
	}
	ls, err := store.LoadWith(dir, store.LoadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if fn := ls.FailedNodes(); len(fn) != 1 || fn[0] != 2 {
		t.Fatalf("corrupt node file not demoted to failure: %v", fn)
	}
	if _, err := ls.RepairAll(); err != nil {
		t.Fatal(err)
	}
	got, rep, err := ls.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("lenient load + repair lost segments: %v", rep.LostSegments)
	}
	for j, seg := range got {
		if !bytes.Equal(seg.Data, segs[j].Data) {
			t.Fatalf("segment %d corrupted after lenient load", seg.ID)
		}
	}
}

// TestChaosCorruptReadDemotesAndCounts pins the demotion accounting on
// the partial-read fast path: a CRC mismatch detected by getSegmentFast
// must (a) increment store_checksum_demotions_total, (b) feed the health
// FSM's corruption streak so a persistently lying node turns Suspect,
// and (c) never surface wrong bytes — the read escalates and decodes
// around the bad column. Before the fix, the fast path silently widened
// the erasure set without recording the demotion anywhere, so a node
// returning garbage on every partial read stayed Healthy forever.
func TestChaosCorruptReadDemotesAndCounts(t *testing.T) {
	out := chaostest.Run(t, chaostest.Scenario{
		Seed:     33,
		Schedule: "node=1,op=readat,fault=corrupt,bytes=1",
	})
	if got := out.Store.Stats().ChecksumDemotions; got != 0 {
		t.Fatalf("whole-column phases demoted %d times under a readat-only rule", got)
	}
	for pass := 0; pass < 3; pass++ {
		for _, want := range out.Segments {
			got, err := out.Store.GetSegment("video", want.ID)
			if err != nil {
				t.Fatalf("pass %d segment %d: %v", pass, want.ID, err)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("pass %d segment %d: wrong bytes despite demotion", pass, want.ID)
			}
		}
	}
	st := out.Store.Stats()
	if st.ChecksumDemotions == 0 {
		t.Fatal("corrupt partial reads never counted as checksum demotions")
	}
	// Every partial read of node 1 fails its CRC, so its corruption
	// streak can only grow: three passes over all segments must push it
	// past SuspectAfter. Other nodes read clean and must stay Healthy.
	health := out.Store.NodeHealth()
	if health[1] == store.HealthHealthy {
		t.Fatalf("node 1 still Healthy after %d checksum demotions", st.ChecksumDemotions)
	}
	for ni, h := range health {
		if ni != 1 && h != store.HealthHealthy {
			t.Fatalf("clean node %d demoted to %v", ni, h)
		}
	}
}
