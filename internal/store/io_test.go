package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// batchBackend is an in-memory NodeIO that also takes batched writes,
// counting which way columns arrive and failing the nodes in down.
type batchBackend struct {
	cols            map[string][]byte
	batches, single int
	down            map[int]bool
}

func (b *batchBackend) key(node int, object string, stripe int) string {
	return fmt.Sprintf("%d/%s/%d", node, object, stripe)
}

func (b *batchBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	col, ok := b.cols[b.key(node, object, stripe)]
	if !ok {
		return nil, chaos.ErrColumnMissing
	}
	return append([]byte(nil), col...), nil
}

func (b *batchBackend) write(node int, object string, stripe int, data []byte) error {
	if b.down[node] {
		return fmt.Errorf("%w: node %d", chaos.ErrNodeUnavailable, node)
	}
	b.cols[b.key(node, object, stripe)] = append([]byte(nil), data...)
	return nil
}

func (b *batchBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	b.single++
	return b.write(node, object, stripe, data)
}

func (b *batchBackend) WriteColumnsCtx(_ context.Context, object string, writes []chaos.ColumnWrite) []error {
	b.batches++
	var errs []error
	for i, w := range writes {
		if err := b.write(w.Node, object, w.Stripe, w.Data); err != nil {
			if errs == nil {
				errs = make([]error, len(writes))
			}
			errs[i] = err
		}
	}
	return errs
}

// TestColumnWriterBatchesOnlyABareBatchingBackend: a stripe goes to a
// backend with the batched-write extension in one call; with anything
// wrapped around the backend, and for UpdateSegment's stop-at-the-first-
// failure writes, it goes column by column — and the store's write
// accounting cannot tell the difference.
func TestColumnWriterBatchesOnlyABareBatchingBackend(t *testing.T) {
	segs := makeSegments(t, 12, 4, 45)
	open := func(wrap bool) (*Store, *batchBackend) {
		b := &batchBackend{cols: make(map[string][]byte), down: make(map[int]bool)}
		cfg := testConfig()
		cfg.Backend = b
		if wrap {
			cfg.WrapIO = func(inner chaos.NodeIO) chaos.NodeIO { return wholeOnlyIO{inner} }
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("video", segs); err != nil {
			t.Fatal(err)
		}
		return s, b
	}
	bare, bb := open(false)
	wrapped, wb := open(true)
	columns := len(bare.nodes)
	if bb.batches != 1 || bb.single != 0 || wb.batches != 0 || wb.single != columns {
		t.Fatalf("one-stripe Put: bare backend got %d batches + %d single writes, wrapped %d + %d; want 1+0 and 0+%d",
			bb.batches, bb.single, wb.batches, wb.single, columns)
	}
	for _, s := range []*Store{bare, wrapped} {
		if a, n := s.metrics.writeAttempts.Value(), s.metrics.writeBytes.Value(); a != int64(columns) || n != int64(columns*s.cfg.NodeSize) {
			t.Fatalf("write accounting: %d attempts, %d bytes for %d columns", a, n, columns)
		}
	}

	// A failed column of a batch is an erasure, not a failed Put: the
	// others land and the object reads back exact.
	bb.down[2] = true
	if err := bare.Put("partial", segs); err != nil {
		t.Fatal(err)
	}
	got, rep, err := bare.Get("partial")
	if err != nil || len(rep.LostSegments) != 0 {
		t.Fatalf("Get after a Put with one column refused: %+v, %v", rep, err)
	}
	checkSegments(t, got, segs, nil)
	if a, n := bare.metrics.writeAttempts.Value(), bare.metrics.writeBytes.Value(); a != int64(2*columns) || n != int64((2*columns-1)*bare.cfg.NodeSize) {
		t.Fatalf("after one refused column: %d attempts, %d bytes", a, n)
	}
	bb.down[2] = false

	// UpdateSegment writes one column at a time even here, and stops at
	// the first that fails.
	bb.batches, bb.single = 0, 0
	if err := bare.UpdateSegment("video", 0, make([]byte, len(segs[0].Data))); err != nil {
		t.Fatal(err)
	}
	if bb.batches != 0 || bb.single == 0 {
		t.Fatalf("UpdateSegment: %d batches, %d single writes", bb.batches, bb.single)
	}
	touched := bb.single
	for n := range bare.nodes {
		bb.down[n] = true
	}
	bb.single = 0
	err = bare.UpdateSegment("video", 0, make([]byte, len(segs[0].Data)))
	if !errors.Is(err, ErrNodeUnavailable) || bb.single != 1 || touched < 2 {
		t.Fatalf("UpdateSegment with every node down: %v after %d of %d writes", err, bb.single, touched)
	}
}
