package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"approxcode/internal/core"
)

// The satellite truncation sweeps: persisted state cut off at every
// byte offset must either fail the load with ErrCorrupted (strict) or
// demote cleanly (lenient) — never panic, never load silently wrong
// bytes.

// tinyConfig shrinks NodeSize to the code's granularity so the node
// files are small enough to sweep byte-by-byte.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	code, err := core.New(cfg.Code)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeSize = code.ShardSizeMultiple()
	return cfg
}

func tinySegments() []Segment {
	return []Segment{
		{ID: 0, Important: true, Data: []byte{1, 2, 3}},
		{ID: 1, Important: false, Data: []byte{4, 5, 6, 7}},
		{ID: 2, Important: false, Data: []byte{8, 9}},
	}
}

// savedTinyStore saves a tiny store and returns its directory and the
// original segments.
func savedTinyStore(t *testing.T) (string, []Segment) {
	t.Helper()
	dir := t.TempDir()
	segs := tinySegments()
	s, err := Open(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, segs
}

func TestTruncationSweepNodeFile(t *testing.T) {
	dir, segs := savedTinyStore(t)
	probe, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := probe.Code().DataNodeIndexes()[0]
	path := currentNodePath(t, dir, victim)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("offset %d: strict load got %v, want ErrCorrupted", off, err)
		}
		loaded, err := LoadWith(dir, LoadOptions{Lenient: true})
		if err != nil {
			t.Fatalf("offset %d: lenient load: %v", off, err)
		}
		if fn := loaded.FailedNodes(); len(fn) != 1 || fn[0] != victim {
			t.Fatalf("offset %d: failed nodes %v, want [%d]", off, fn, victim)
		}
		got, rep, err := loaded.Get("video")
		if err != nil || len(rep.LostSegments) != 0 {
			t.Fatalf("offset %d: degraded get: %v %+v", off, err, rep)
		}
		checkSegments(t, got, segs, nil)
	}
	// Restore and confirm the sweep left the directory loadable.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("restored file no longer loads: %v", err)
	}
}

func TestTruncationSweepManifest(t *testing.T) {
	dir, _ := savedTinyStore(t)
	path := currentManifestPath(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Manifest corruption is fatal in both modes: without it nothing
		// can be interpreted.
		if _, err := Load(dir); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("offset %d: strict load got %v, want ErrCorrupted", off, err)
		}
		if _, err := LoadWith(dir, LoadOptions{Lenient: true}); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("offset %d: lenient load got %v, want ErrCorrupted", off, err)
		}
	}
}

// TestTruncationSweepJournal cuts a journal holding three back-to-back
// records (put, update, put — on disk a multi-record run looks the same
// whether one batch wrote it or three) at every byte offset: inside a
// header, inside a length table, inside payload bytes, exactly between
// records. Replay must apply exactly the whole records before the cut,
// so the store is always one of the four states the operations passed
// through, never anything in between.
func TestTruncationSweepJournal(t *testing.T) {
	dir := t.TempDir()
	segs := tinySegments()
	updated := []byte{0x71, 0x72, 0x73, 0x74}
	clip := []Segment{{ID: 7, Important: true, Data: []byte{9, 9, 9, 9, 9}}}
	s, _, err := OpenDurable(dir, tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// These operations live only in the journal (the initial snapshot
	// generation predates them), so replay decides what is visible.
	if err := s.Put("video", segs); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateSegment("video", 1, updated); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("clip", clip); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	afterUpdate := append([]Segment(nil), segs...)
	afterUpdate[1] = Segment{ID: 1, Data: updated}
	path := filepath.Join(dir, journalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, _, err := parseJournal(full)
	if err != nil || len(whole) != 3 {
		t.Fatalf("baseline: %d records, %v", len(whole), err)
	}
	// ends[i] is the offset just past record i.
	var ends []int
	end := len(journalMagic)
	for _, r := range whole {
		end += journalHdrLen + len(r.Payload)
		ends = append(ends, end)
	}
	check := func(off int, loaded *Store, name string, want []Segment) {
		t.Helper()
		got, rep, err := loaded.Get(name)
		if err != nil || len(rep.LostSegments) != 0 {
			t.Fatalf("offset %d: get %s: %v %+v", off, name, err, rep)
		}
		checkSegments(t, got, want, nil)
	}
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if off < len(journalMagic) {
			// A headerless journal cannot be trusted: strict loads refuse,
			// lenient loads fall back to the snapshot alone.
			if _, err := Load(dir); !errors.Is(err, ErrCorrupted) {
				t.Fatalf("offset %d: strict load got %v, want ErrCorrupted", off, err)
			}
			loaded, err := LoadWith(dir, LoadOptions{Lenient: true})
			if err != nil {
				t.Fatalf("offset %d: lenient load: %v", off, err)
			}
			if len(loaded.Objects()) != 0 {
				t.Fatalf("offset %d: headerless journal still produced objects", off)
			}
			continue
		}
		// Past the header every truncation is a torn tail: the whole
		// records before it replay, the torn one is all-or-nothing.
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("offset %d: strict load: %v", off, err)
		}
		applied := 0
		for applied < len(ends) && ends[applied] <= off {
			applied++
		}
		wantObjects := []int{0, 1, 1, 2}[applied]
		if names := loaded.Objects(); len(names) != wantObjects {
			t.Fatalf("offset %d (%d whole records): objects %v", off, applied, names)
		}
		switch applied {
		case 1:
			check(off, loaded, "video", segs)
		case 2:
			check(off, loaded, "video", afterUpdate)
		case 3:
			check(off, loaded, "video", afterUpdate)
			check(off, loaded, "clip", clip)
		}
	}
}
