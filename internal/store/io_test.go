package store

import (
	"bytes"
	"testing"

	"approxcode/internal/chaos"
)

// TestBareColumnReadsAllocateOnlyTheCopy is the allocation guard for
// the unwrapped in-process store: a column read is a gate, some
// counters and one call on the backend, so the only allocation is
// memIO's copy of the bytes — for the sub-block reads behind GetSegment
// exactly as for whole columns. (The partial path used to build a
// deadline context and an attempt closure for a retry loop a bare store
// never enters: 5 allocations per call.)
func TestBareColumnReadsAllocateOnlyTheCopy(t *testing.T) {
	s := openWith(t, makeSegments(t, 12, 4, 43))
	sub := s.cfg.NodeSize / s.cfg.Code.H
	whole := testing.AllocsPerRun(200, func() {
		if _, err := s.readColumn(0, "video", 0); err != nil {
			t.Fatal(err)
		}
	})
	partial := testing.AllocsPerRun(200, func() {
		if _, err := s.readColumnAt(0, "video", 0, sub, sub); err != nil {
			t.Fatal(err)
		}
	})
	if whole != 1 || partial > whole {
		t.Fatalf("allocations per call: readColumn %.0f, readColumnAt %.0f; want 1 and no more than readColumn", whole, partial)
	}
	st := s.Stats()
	if st.Retries != 0 || st.Hedges != 0 {
		t.Fatalf("bare store went through the retry wrapper: %+v", st)
	}
}

// wholeOnlyIO hides every optional extension of the NodeIO it wraps.
type wholeOnlyIO struct{ inner chaos.NodeIO }

func (w wholeOnlyIO) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return w.inner.ReadColumn(node, object, stripe)
}
func (w wholeOnlyIO) WriteColumn(node int, object string, stripe int, data []byte) error {
	return w.inner.WriteColumn(node, object, stripe, data)
}

// TestPartialReadFallsBackToWholeColumn: over an I/O stack without
// PartialReader or CtxIO, segment reads still return exact bytes — the
// attempt layer reads the whole column and slices it — and the
// accounting says so: no partial reads, whole columns' worth of bytes.
func TestPartialReadFallsBackToWholeColumn(t *testing.T) {
	segs := makeSegments(t, 12, 4, 44)
	cfg := testConfig()
	cfg.WrapIO = func(inner chaos.NodeIO) chaos.NodeIO { return wholeOnlyIO{inner} }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	before := s.metrics.readBytes.Value()
	for _, want := range segs {
		got, err := s.GetSegment("video", want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d differs through the whole-column fall-back", want.ID)
		}
	}
	if n := s.metrics.partialReads.Value(); n != 0 {
		t.Fatalf("%d partial reads counted over a stack that has none", n)
	}
	reads := s.metrics.readAttempts.Value()
	if moved := s.metrics.readBytes.Value() - before; reads == 0 || moved != reads*int64(s.cfg.NodeSize) {
		t.Fatalf("%d reads moved %d bytes, want whole columns of %d", reads, moved, s.cfg.NodeSize)
	}
}
