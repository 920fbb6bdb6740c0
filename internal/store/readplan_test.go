package store

import (
	"bytes"
	"testing"

	"approxcode/internal/obs"
)

// openPlanned opens a store on an enabled registry so the tests can
// read the planning counters, and ingests one object.
func openPlanned(t *testing.T, segs []Segment) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(true)
	cfg := testConfig()
	cfg.Obs = reg
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// TestGetSegmentMovesOnlyPlannedBytes is the bytes-moved regression
// test for the partial-read fast path: a healthy GetSegment must move
// only the segment's sub-block slices, not whole stripes. The bound is
// deliberately loose (a quarter of one stripe) — the point is the
// order of magnitude, not the exact plan width.
func TestGetSegmentMovesOnlyPlannedBytes(t *testing.T) {
	segs := makeSegments(t, 12, 4, 21)
	s, reg := openPlanned(t, segs)

	readBytes := reg.Counter("store_node_read_bytes_total")
	partialReads := reg.Counter("store_partial_reads_total")
	partialBytes := reg.Counter("store_partial_read_bytes_total")
	fallbacks := reg.Counter("store_plan_fallbacks_total")

	bBefore, fBefore := readBytes.Value(), fallbacks.Value()
	got, err := s.GetSegment("video", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, segs[3].Data) {
		t.Fatal("segment data differs")
	}
	if fallbacks.Value() != fBefore {
		t.Fatal("healthy GetSegment fell back to the whole-object path")
	}
	if partialReads.Value() == 0 || partialBytes.Value() == 0 {
		t.Fatal("fast path issued no partial reads")
	}
	moved := readBytes.Value() - bBefore
	fullStripe := int64(s.cfg.NodeSize) * int64(len(s.nodes))
	if moved == 0 {
		t.Fatal("no bytes accounted for the segment read")
	}
	if moved*4 > fullStripe {
		t.Fatalf("GetSegment moved %d bytes; full stripe is %d — partial reads not engaged", moved, fullStripe)
	}
}

// TestGetSegmentDegradedStaysMinimal: with the segment's own node
// failed, GetSegment decodes the extent from its codeword's planned
// survivors — still via partial reads, still exact.
func TestGetSegmentDegradedStaysMinimal(t *testing.T) {
	segs := makeSegments(t, 12, 4, 22)
	s, reg := openPlanned(t, segs)

	obj, ok := s.objects.get("video")
	if !ok {
		t.Fatal("object missing")
	}
	target := segs[5]
	node := -1
	for _, e := range obj.extents {
		if e.seg == target.ID {
			node = e.node
			break
		}
	}
	if node < 0 {
		t.Fatal("segment 5 has no extent")
	}
	if err := s.FailNodes(node); err != nil {
		t.Fatal(err)
	}

	degraded := reg.Counter("store_degraded_sub_reads_total")
	readBytes := reg.Counter("store_node_read_bytes_total")
	dBefore, bBefore := degraded.Value(), readBytes.Value()
	got, err := s.GetSegment("video", target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, target.Data) {
		t.Fatal("degraded segment data differs")
	}
	if degraded.Value() == dBefore {
		t.Fatal("degraded read never decoded a sub-block")
	}
	moved := readBytes.Value() - bBefore
	fullObject := int64(s.cfg.NodeSize) * int64(len(s.nodes)) * int64(obj.stripes)
	if moved >= fullObject {
		t.Fatalf("degraded GetSegment read the whole object (%d bytes)", moved)
	}
}

// TestRepairReadsFewerBytesThanFullStripe: repairing a single failed
// node must account its survivor traffic (RepairReport.BytesRead, the
// store_repair_read_bytes_total counter) and, with read planning, that
// traffic must be strictly below reading every surviving column of
// every stripe — the pre-planning behaviour.
func TestRepairReadsFewerBytesThanFullStripe(t *testing.T) {
	segs := makeSegments(t, 16, 4, 23)
	s, reg := openPlanned(t, segs)
	obj, _ := s.objects.get("video")

	if err := s.FailNodes(0); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StripesRepaired == 0 || rep.ShardsHealed == 0 {
		t.Fatalf("repair did nothing: %+v", rep)
	}
	if rep.BytesRead == 0 {
		t.Fatal("repair accounted no bytes read")
	}
	if got := reg.Counter("store_repair_read_bytes_total").Value(); got != rep.BytesRead {
		t.Fatalf("counter %d != report BytesRead %d", got, rep.BytesRead)
	}
	fullSurvivors := int64(s.cfg.NodeSize) * int64(len(s.nodes)-1) * int64(obj.stripes)
	if rep.BytesRead >= fullSurvivors {
		t.Fatalf("planned repair read %d bytes, full-stripe baseline is %d", rep.BytesRead, fullSurvivors)
	}

	got, gr, err := s.Get("video")
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.LostSegments) != 0 {
		t.Fatalf("post-repair read lost segments: %v", gr.LostSegments)
	}
	for i, seg := range got {
		if !bytes.Equal(seg.Data, segs[i].Data) {
			t.Fatalf("post-repair segment %d differs", seg.ID)
		}
	}
}

// TestGetSegmentLegacyObjectFallsBack: an object with neither segment
// nor sub-block checksums (as loaded from a pre-sub-checksum snapshot)
// cannot verify partial reads; GetSegment must take the whole-object path and still
// return exact bytes.
func TestGetSegmentLegacyObjectFallsBack(t *testing.T) {
	segs := makeSegments(t, 8, 4, 24)
	s, reg := openPlanned(t, segs)
	obj, _ := s.objects.get("video")
	obj.sumsMu.Lock()
	obj.subSums, obj.segSums = nil, nil // simulate a legacy snapshot
	obj.sumsMu.Unlock()

	fallbacks := reg.Counter("store_plan_fallbacks_total")
	fBefore := fallbacks.Value()
	got, err := s.GetSegment("video", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, segs[2].Data) {
		t.Fatal("legacy segment data differs")
	}
	if fallbacks.Value() == fBefore {
		t.Fatal("legacy object did not fall back")
	}
}
