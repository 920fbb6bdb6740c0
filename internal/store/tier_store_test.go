package store

import (
	"bytes"
	"testing"

	"approxcode/internal/core"
	"approxcode/internal/tier"
)

// globalParityPresent reports whether any of the object's global parity
// columns are stored (cold objects must have none).
func globalParityPresent(s *Store, name string) bool {
	for ni, nd := range s.nodes {
		if s.code.Role(ni) != core.RoleGlobalParity {
			continue
		}
		nd.mu.RLock()
		cols := nd.columns[name]
		for _, c := range cols {
			if len(c) > 0 {
				nd.mu.RUnlock()
				return true
			}
		}
		nd.mu.RUnlock()
	}
	return false
}

// allReplicas reports whether every data column of every stripe has a
// stored replica under the object's shadow key.
func allReplicas(s *Store, name string, stripes int) bool {
	rep := repKey(name)
	for st := 0; st < stripes; st++ {
		for _, ni := range s.code.DataNodeIndexes() {
			nd := s.nodes[s.repNode(ni)]
			nd.mu.RLock()
			cols := nd.columns[rep]
			ok := st < len(cols) && len(cols[st]) > 0
			nd.mu.RUnlock()
			if !ok {
				return false
			}
		}
	}
	return true
}

func mustGetAll(t *testing.T, s *Store, name string, want []Segment) {
	t.Helper()
	got, rep, err := s.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("lost segments %v", rep.LostSegments)
	}
	checkSegments(t, got, want, nil)
}

func TestMigrateRoundTripByteExact(t *testing.T) {
	segs := makeSegments(t, 20, 10, 7)
	s := openWith(t, segs)
	obj, _ := s.objects.get("video")

	if lvl, ok := s.ObjectTier("video"); !ok || lvl != tier.Warm {
		t.Fatalf("fresh object tier = %v, %v; want Warm", lvl, ok)
	}

	// Warm -> Hot: replicas appear, reads stay byte-exact.
	if err := s.MigrateObject("video", tier.Hot); err != nil {
		t.Fatal(err)
	}
	if lvl, _ := s.ObjectTier("video"); lvl != tier.Hot {
		t.Fatalf("tier after promote = %v, want Hot", lvl)
	}
	if !allReplicas(s, "video", obj.stripes) {
		t.Fatal("hot object missing replica columns")
	}
	mustGetAll(t, s, "video", segs)

	// Hot -> Cold: replicas and global parity both retired.
	if err := s.MigrateObject("video", tier.Cold); err != nil {
		t.Fatal(err)
	}
	if allReplicas(s, "video", obj.stripes) {
		t.Fatal("cold object still has replica columns")
	}
	if globalParityPresent(s, "video") {
		t.Fatal("cold object still has global parity columns")
	}
	mustGetAll(t, s, "video", segs)

	// Cold -> Warm: global parity re-derived; scrub verifies the full
	// parity relations end to end against the rebuilt columns.
	if err := s.MigrateObject("video", tier.Warm); err != nil {
		t.Fatal(err)
	}
	if !globalParityPresent(s, "video") {
		t.Fatal("warm object missing global parity columns")
	}
	mustGetAll(t, s, "video", segs)
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 0 || rep.StripesSkipped != 0 {
		t.Fatalf("scrub after cold->warm: corrupt=%v skipped=%d", rep.Corrupt, rep.StripesSkipped)
	}

	// Warm->Hot and Cold->Warm move toward hotter redundancy
	// (promotions); Hot->Cold is the one demotion.
	st := s.Stats()
	if st.TierPromotions != 2 || st.TierDemotions != 1 {
		t.Fatalf("promotions=%d demotions=%d, want 2/1", st.TierPromotions, st.TierDemotions)
	}

	// Same-tier migration is a no-op, not an error or a counter bump.
	if err := s.MigrateObject("video", tier.Warm); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.TierPromotions != 2 || got.TierDemotions != 1 {
		t.Fatalf("no-op migration bumped counters: %+v", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	s := openWith(t, makeSegments(t, 6, 3, 9))
	if err := s.MigrateObject("video", tier.Level(42)); err == nil {
		t.Fatal("invalid tier accepted")
	}
	if err := s.MigrateObject("nope", tier.Hot); err == nil {
		t.Fatal("unknown object accepted")
	}
	if err := s.FailNodes(0); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateObject("video", tier.Hot); err == nil {
		t.Fatal("migration with failed nodes accepted")
	}
}

func TestColdTierSurvivesNodeFailure(t *testing.T) {
	segs := makeSegments(t, 18, 6, 11)
	s := openWith(t, segs)
	if err := s.MigrateObject("video", tier.Cold); err != nil {
		t.Fatal(err)
	}
	// One failure per local group is inside the cold code's tolerance
	// (R=1): every byte must still decode.
	if err := s.FailNodes(1); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostSegments) != 0 {
		t.Fatalf("cold degraded read lost %v", rep.LostSegments)
	}
	checkSegments(t, got, segs, nil)
}

func TestHotReplicaServesCorruptedColumn(t *testing.T) {
	segs := makeSegments(t, 16, 4, 13)
	s := openWith(t, segs)
	if err := s.MigrateObject("video", tier.Hot); err != nil {
		t.Fatal(err)
	}
	// Damage one data column's stored bytes; sub-block reads of it fail
	// verification, demote the node, and fall through to the replica.
	dataNode := s.code.DataNodeIndexes()[0]
	if err := s.CorruptByte("video", 0, dataNode, 0); err != nil {
		t.Fatal(err)
	}
	for _, w := range segs {
		seg, err := s.GetSegment("video", w.ID)
		if err != nil {
			t.Fatalf("segment %d: %v", w.ID, err)
		}
		if !bytes.Equal(seg.Data, w.Data) {
			t.Fatalf("segment %d bytes differ", w.ID)
		}
	}
	st := s.Stats()
	if st.ChecksumDemotions == 0 {
		t.Fatal("corrupted column read did not count a checksum demotion")
	}
	// The exact-range rung in front hands a mismatch to the sub-block
	// rung unchanged; that it was the replica (not a decode) that then
	// served the damaged column's segments shows in the decode counter.
	if st.DegradedSubReads != 0 {
		t.Fatalf("%d sub-blocks decoded; the replica should have served them", st.DegradedSubReads)
	}
}

func TestColdUpdateDoesNotResurrectGlobalParity(t *testing.T) {
	segs := makeSegments(t, 12, 4, 17)
	s := openWith(t, segs)
	if err := s.MigrateObject("video", tier.Cold); err != nil {
		t.Fatal(err)
	}
	newData := make([]byte, len(segs[3].Data))
	for i := range newData {
		newData[i] = byte(i)
	}
	if err := s.UpdateSegment("video", 3, newData); err != nil {
		t.Fatal(err)
	}
	if globalParityPresent(s, "video") {
		t.Fatal("update resurrected global parity on a cold object")
	}
	want := append([]Segment(nil), segs...)
	want[3].Data = newData
	mustGetAll(t, s, "video", want)

	// Promote back: the re-derived global parity must reflect the
	// updated bytes (scrub verifies the full relations).
	if err := s.MigrateObject("video", tier.Warm); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("scrub found corrupt stripes after cold update + promote: %v", rep.Corrupt)
	}
	mustGetAll(t, s, "video", want)
}

func TestRepairKeepsColdTier(t *testing.T) {
	cfg := testConfig()
	s, _, all := openDurableWith(t, 2, 23, cfg)
	if err := s.MigrateObject(objName(0), tier.Cold); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNodes(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RepairAll(); err != nil {
		t.Fatal(err)
	}
	if globalParityPresent(s, objName(0)) {
		t.Fatal("repair resurrected global parity on a cold object")
	}
	if lvl, _ := s.ObjectTier(objName(0)); lvl != tier.Cold {
		t.Fatalf("tier after repair = %v, want Cold", lvl)
	}
	for i, want := range all {
		mustGetAll(t, s, objName(i), want)
	}
}

func TestMigratePersistsAcrossRecovery(t *testing.T) {
	cfg := testConfig()
	s, dir, all := openDurableWith(t, 2, 29, cfg)
	if err := s.MigrateObject(objName(0), tier.Hot); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateObject(objName(1), tier.Cold); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Journal replay path: the snapshot predates the migrations.
	r1, _, err := Recover(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lvl, _ := r1.ObjectTier(objName(0)); lvl != tier.Hot {
		t.Fatalf("recovered tier of %s = %v, want Hot", objName(0), lvl)
	}
	if lvl, _ := r1.ObjectTier(objName(1)); lvl != tier.Cold {
		t.Fatalf("recovered tier of %s = %v, want Cold", objName(1), lvl)
	}
	obj0, _ := r1.objects.get(objName(0))
	if !allReplicas(r1, objName(0), obj0.stripes) {
		t.Fatal("recovered hot object missing replicas")
	}
	if globalParityPresent(r1, objName(1)) {
		t.Fatal("recovered cold object has global parity")
	}
	for i, want := range all {
		mustGetAll(t, r1, objName(i), want)
	}

	// Snapshot path: Save captures the tier in the manifest.
	if err := r1.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, _, err := Recover(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if lvl, _ := r2.ObjectTier(objName(0)); lvl != tier.Hot {
		t.Fatalf("snapshot tier of %s = %v, want Hot", objName(0), lvl)
	}
	if lvl, _ := r2.ObjectTier(objName(1)); lvl != tier.Cold {
		t.Fatalf("snapshot tier of %s = %v, want Cold", objName(1), lvl)
	}
	for i, want := range all {
		mustGetAll(t, r2, objName(i), want)
	}
}

func TestSegmentCacheHitsAndInvalidation(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 1 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := makeSegments(t, 10, 5, 31)
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	// Warm objects bypass the cache entirely.
	if _, err := s.GetSegment("video", 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("warm object touched the cache: %+v", st)
	}

	if err := s.MigrateObject("video", tier.Hot); err != nil {
		t.Fatal(err)
	}
	first, err := s.GetSegment("video", 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.GetSegment("video", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, segs[2].Data) || !bytes.Equal(second.Data, segs[2].Data) {
		t.Fatal("cached read returned wrong bytes")
	}
	st := s.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}

	// Mutating the returned segment must not poison the cache.
	for i := range second.Data {
		second.Data[i] = 0xAA
	}
	again, err := s.GetSegment("video", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Data, segs[2].Data) {
		t.Fatal("caller mutation reached the cache")
	}

	// An update bumps the epoch: the next read misses, re-derives, and
	// returns the new bytes.
	newData := make([]byte, len(segs[2].Data))
	for i := range newData {
		newData[i] = byte(255 - i%251)
	}
	if err := s.UpdateSegment("video", 2, newData); err != nil {
		t.Fatal(err)
	}
	updated, err := s.GetSegment("video", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(updated.Data, newData) {
		t.Fatal("cache served pre-update bytes")
	}
}
