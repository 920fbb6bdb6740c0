package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"approxcode/internal/tier"
)

// These tests cover rung 0 of the single-segment read ladder (exactly
// the segment's bytes, verified against its content checksum) and the
// lifecycle of that checksum.

// segSumsOf snapshots the object's segment sums.
func segSumsOf(t *testing.T, s *Store, name string) []segSum {
	t.Helper()
	obj, ok := s.objects.get(name)
	if !ok {
		t.Fatalf("object %q missing", name)
	}
	obj.sumsMu.RLock()
	defer obj.sumsMu.RUnlock()
	return append([]segSum(nil), obj.segSums...)
}

// wantSegSums is what Put must publish for segs.
func wantSegSums(segs []Segment) []segSum {
	out := make([]segSum, len(segs))
	for i, seg := range segs {
		out[i] = segSum{Sum: colSum(seg.Data), OK: true}
	}
	return out
}

// spillingSegments returns enough near-sub-block-sized segments that
// the second one in a slot spills into the next stripe, so the object
// holds both single- and multi-extent segments.
func spillingSegments(t *testing.T, seed int64) []Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	segs := make([]Segment, 60)
	for i := range segs {
		data := make([]byte, 300+rng.Intn(150))
		rng.Read(data)
		segs[i] = Segment{ID: i, Important: i%4 == 0, Data: data}
	}
	return segs
}

// TestHealthyGetSegmentMovesExactlyItsBytes: over healthy nodes a
// GetSegment moves the segment's own bytes and nothing else — one
// partial read per extent — for single-extent and spilled segments
// alike.
func TestHealthyGetSegmentMovesExactlyItsBytes(t *testing.T) {
	segs := spillingSegments(t, 61)
	s, reg := openPlanned(t, segs)
	obj, _ := s.objects.get("video")
	readBytes := reg.Counter("store_node_read_bytes_total")
	partialReads := reg.Counter("store_partial_reads_total")
	fallbacks := reg.Counter("store_plan_fallbacks_total")
	extentCounts := make(map[int]bool)
	for _, want := range segs {
		exts := obj.segExt[obj.segPos[want.ID]]
		extentCounts[len(exts)] = true
		b0, p0, f0 := readBytes.Value(), partialReads.Value(), fallbacks.Value()
		got, err := s.GetSegment("video", want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Important != want.Important {
			t.Fatalf("segment %d differs", want.ID)
		}
		if moved := readBytes.Value() - b0; moved != int64(len(want.Data)) {
			t.Fatalf("segment %d (%d extents): moved %d bytes to serve %d", want.ID, len(exts), moved, len(want.Data))
		}
		if reads := partialReads.Value() - p0; reads != int64(len(exts)) {
			t.Fatalf("segment %d: %d partial reads for %d extents", want.ID, reads, len(exts))
		}
		if fallbacks.Value() != f0 {
			t.Fatalf("segment %d fell back to the whole-object path", want.ID)
		}
	}
	if !extentCounts[1] || len(extentCounts) < 2 {
		t.Fatalf("workload must hold single- and multi-extent segments, got extent counts %v", extentCounts)
	}
	if st := s.Stats(); st.ChecksumDemotions != 0 {
		t.Fatalf("healthy reads demoted %d times", st.ChecksumDemotions)
	}
}

// TestHealthyGetSegmentAllocatesOnlyTheCopy is the allocation guard for
// rung 0 on the bare in-process store: a healthy single-extent
// GetSegment is an index lookup, one exact-range read and a CRC, and
// the reply is the read buffer itself — memIO's copy of the bytes is
// the only allocation (bytes copied per byte served: 1).
func TestHealthyGetSegmentAllocatesOnlyTheCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	segs := makeSegments(t, 12, 4, 62)
	s := openWith(t, segs)
	obj, _ := s.objects.get("video")
	if n := len(obj.segExt[obj.segPos[3]]); n != 1 {
		t.Fatalf("segment 3 has %d extents, want 1", n)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.GetSegment("video", 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("healthy GetSegment allocates %.0f times, want 1 (the backend's copy)", allocs)
	}
}

// TestErasedExtentReadsMoveThePlannedSubBlocks: with the segment's node
// failed, rung 0 issues nothing and the sub-block rung's traffic is
// exactly its read plan — one sub-block-sized partial read per planned
// sub-block, as before segment sums existed.
func TestErasedExtentReadsMoveThePlannedSubBlocks(t *testing.T) {
	segs := makeSegments(t, 12, 4, 63)
	s, reg := openPlanned(t, segs)
	obj, _ := s.objects.get("video")
	exts := obj.segExt[obj.segPos[5]]
	if len(exts) != 1 {
		t.Fatalf("segment 5 has %d extents, want 1", len(exts))
	}
	e := exts[0]
	if err := s.FailNodes(e.node); err != nil {
		t.Fatal(err)
	}
	plan, err := s.code.PlanSubBlockRead(e.node, e.row, []int{e.node})
	if err != nil {
		t.Fatal(err)
	}
	sub := int64(s.cfg.NodeSize / s.cfg.Code.H)
	readBytes := reg.Counter("store_node_read_bytes_total")
	attempts := reg.Counter("store_node_read_attempts_total")
	b0, a0 := readBytes.Value(), attempts.Value()
	got, err := s.GetSegment("video", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, segs[5].Data) {
		t.Fatal("degraded segment differs")
	}
	if reads := attempts.Value() - a0; reads != int64(len(plan)) {
		t.Fatalf("%d reads, the plan names %d sub-blocks", reads, len(plan))
	}
	if moved := readBytes.Value() - b0; moved != int64(len(plan))*sub {
		t.Fatalf("moved %d bytes, the plan is %d sub-blocks of %d", moved, len(plan), sub)
	}
}

// TestSegmentSumFollowsContentOnly: the sum is defined by the caller's
// bytes — Put publishes it, UpdateSegment moves it, and nothing that
// only touches redundancy or placement (scrub heal, within-tolerance
// repair, tier migration, Save/Load) changes it.
func TestSegmentSumFollowsContentOnly(t *testing.T) {
	segs := makeSegments(t, 16, 4, 64)
	s := openWith(t, segs)
	want := wantSegSums(segs)
	check := func(when string) {
		t.Helper()
		if got := segSumsOf(t, s, "video"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: segment sums %v, want %v", when, got, want)
		}
	}
	check("after Put")

	fresh := bytes.Repeat([]byte{0xA5}, len(segs[6].Data))
	if err := s.UpdateSegment("video", 6, fresh); err != nil {
		t.Fatal(err)
	}
	segs[6].Data = fresh
	want[6] = segSum{Sum: colSum(fresh), OK: true}
	check("after UpdateSegment")

	dn := s.code.DataNodeIndexes()
	if err := s.CorruptByte("video", 0, dn[1], 7); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Scrub(); err != nil || rep.Healed != 1 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	check("after Scrub heal")

	if err := s.FailNodes(dn[0]); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.RepairAll(); err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("repair: %+v, %v", rep, err)
	}
	check("after RepairAll")

	for _, to := range []tier.Level{tier.Hot, tier.Cold, tier.Warm} {
		if err := s.MigrateObject("video", to); err != nil {
			t.Fatal(err)
		}
		check("after MigrateObject " + to.String())
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	var err error
	if s, err = Load(dir); err != nil {
		t.Fatal(err)
	}
	check("after Save/Load")
	mustGetAll(t, s, "video", segs)
}

// TestSegmentSumSurvivesJournalReplay: the journal carries no sums —
// replay of a put and an update re-derives them from the recorded
// bytes.
func TestSegmentSumSurvivesJournalReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	segs := makeSegments(t, 12, 4, 65)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0x3C}, len(segs[2].Data))
	if err := s.UpdateSegment("video", 2, fresh); err != nil {
		t.Fatal(err)
	}
	segs[2].Data = fresh
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, rep, err := Recover(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep.ReplayedOps != 2 {
		t.Fatalf("replayed %d ops, want the put and the update", rep.ReplayedOps)
	}
	if got, want := segSumsOf(t, r, "video"), wantSegSums(segs); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed segment sums %v, want %v", got, want)
	}
}

// TestZeroFillRepairClearsSegmentSums: a beyond-tolerance repair
// zero-fills unimportant segments; what the nodes hold is then not what
// the caller wrote, so exactly those segments lose their sum — live,
// and again when recovery replays the repair checkpoints — and are
// served (as the zeros the repair report flagged) through the
// sub-block sums.
func TestZeroFillRepairClearsSegmentSums(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	segs := makeSegments(t, 24, 6, 66)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	dn := s.code.DataNodeIndexes()
	// Two failures in unimportant stripe 1 (k=3): r=1 exceeded.
	if err := s.FailNodes(dn[3], dn[4]); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	lost := make(map[int]bool)
	for _, id := range rep.LostSegments["video"] {
		lost[id] = true
	}
	if len(lost) == 0 {
		t.Fatal("expected zero-filled segments")
	}
	want := wantSegSums(segs)
	for id := range lost {
		want[id] = segSum{}
	}
	if got := segSumsOf(t, s, "video"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after repair: segment sums %v, want %v", got, want)
	}
	sub := int64(s.cfg.NodeSize / s.cfg.Code.H)
	for _, w := range segs {
		before := s.metrics.readBytes.Value()
		got, err := s.GetSegment("video", w.ID)
		if err != nil {
			t.Fatalf("segment %d: %v", w.ID, err)
		}
		moved := s.metrics.readBytes.Value() - before
		if !lost[w.ID] {
			if !bytes.Equal(got.Data, w.Data) || moved != int64(len(w.Data)) {
				t.Fatalf("intact segment %d: exact=%v, moved %d of %d bytes", w.ID, bytes.Equal(got.Data, w.Data), moved, len(w.Data))
			}
			continue
		}
		if len(got.Data) != len(w.Data) || moved == 0 || moved%sub != 0 {
			t.Fatalf("zero-filled segment %d: %d bytes back, moved %d (sub-block %d)", w.ID, len(got.Data), moved, sub)
		}
	}
	if st := s.Stats(); st.ChecksumDemotions != 0 {
		t.Fatalf("reads after the repair demoted %d times", st.ChecksumDemotions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := segSumsOf(t, r, "video"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after checkpoint replay: segment sums %v, want %v", got, want)
	}
}

// serveThroughSubBlocks asserts every segment reads back exact with no
// segment sum to go by: sub-block-sized traffic, no whole-object
// fallback.
func serveThroughSubBlocks(t *testing.T, s *Store, segs []Segment) {
	t.Helper()
	if got := segSumsOf(t, s, "video"); got != nil {
		t.Fatalf("object has segment sums %v, want none", got)
	}
	sub := int64(s.cfg.NodeSize / s.cfg.Code.H)
	fallbacks := s.metrics.planFallbacks.Value()
	for _, w := range segs {
		before := s.metrics.readBytes.Value()
		got, err := s.GetSegment("video", w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, w.Data) {
			t.Fatalf("segment %d differs", w.ID)
		}
		if moved := s.metrics.readBytes.Value() - before; moved == 0 || moved%sub != 0 {
			t.Fatalf("segment %d moved %d bytes, want whole sub-blocks of %d", w.ID, moved, sub)
		}
	}
	if s.metrics.planFallbacks.Value() != fallbacks {
		t.Fatal("reads fell back to the whole-object path")
	}
}

// TestManifestWithoutSegmentSums: a manifest that lacks the field (gob
// omits a nil slice, exactly as an older writer omits a field it does
// not know) loads with no sums and serves through the sub-block rung;
// an update then gives the rewritten segment its sum.
func TestManifestWithoutSegmentSums(t *testing.T) {
	segs := makeSegments(t, 12, 4, 67)
	s := openWith(t, segs)
	obj, _ := s.objects.get("video")
	obj.sumsMu.Lock()
	obj.segSums = nil
	obj.sumsMu.Unlock()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	serveThroughSubBlocks(t, loaded, segs)
	fresh := bytes.Repeat([]byte{0x5A}, len(segs[4].Data))
	if err := loaded.UpdateSegment("video", 4, fresh); err != nil {
		t.Fatal(err)
	}
	before := loaded.metrics.readBytes.Value()
	got, err := loaded.GetSegment("video", 4)
	if err != nil || !bytes.Equal(got.Data, fresh) {
		t.Fatalf("updated segment: %v", err)
	}
	if moved := loaded.metrics.readBytes.Value() - before; moved != int64(len(fresh)) {
		t.Fatalf("updated segment moved %d bytes, want its own %d", moved, len(fresh))
	}
}

// TestParentSnapshotLoadsAndServes loads testdata/snapshot_pr14, a
// snapshot written by commit 932e368 (the last one before segment
// sums), and serves every segment from it. The fixture was written by:
//
//	s, _ := store.Open(store.Config{Code: RS(3,1,2) h=3 Uneven, NodeSize: 3 * 512})
//	rng := rand.New(rand.NewSource(1401)) // 8 segments of 100+rng.Intn(400)
//	// random bytes each, every 4th important
//	s.Put("video", segs); s.Save(dir)
func TestParentSnapshotLoadsAndServes(t *testing.T) {
	// Load from a copy: loading is read-only today, the fixture must
	// stay so whatever a later change does.
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "snapshot_pr14", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1401))
	segs := make([]Segment, 8)
	for i := range segs {
		data := make([]byte, 100+rng.Intn(400))
		rng.Read(data)
		segs[i] = Segment{ID: i, Important: i%4 == 0, Data: data}
	}
	s, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	serveThroughSubBlocks(t, s, segs)
	mustGetAll(t, s, "video", segs)
}

// TestGetSegmentsDoNotShareCapacity: Get hands out slices of one arena;
// each is capacity-capped, so appending to one segment's bytes cannot
// run into its neighbour.
func TestGetSegmentsDoNotShareCapacity(t *testing.T) {
	segs := makeSegments(t, 12, 4, 68)
	s := openWith(t, segs)
	got, _, err := s.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cap(got[i].Data) != len(got[i].Data) {
			t.Fatalf("segment %d: cap %d > len %d", got[i].ID, cap(got[i].Data), len(got[i].Data))
		}
		got[i].Data = append(got[i].Data, 0xFF)
	}
	for i, w := range segs {
		if !bytes.Equal(got[i].Data[:len(w.Data)], w.Data) {
			t.Fatalf("segment %d clobbered by a neighbour's append", w.ID)
		}
	}
}
