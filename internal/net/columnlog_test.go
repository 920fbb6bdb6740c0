package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"approxcode/internal/chaos"
	"approxcode/internal/chaos/crashtest"
)

// The column log's own tests: the durability contract under kills and
// truncation, the scanner under arbitrary bytes, compaction, and the
// refusal of the old directory layout. The batch path through the wire
// and the store is in batch_test.go.

// colState is what a backend must read back: column → bytes, a missing
// entry meaning chaos.ErrColumnMissing.
type colState map[colKey]string

func (s colState) clone() colState {
	out := make(colState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// applyWrites is the model of a batch.
func (s colState) applyWrites(object string, writes []chaos.ColumnWrite) {
	for _, w := range writes {
		k := colKey{node: uint32(w.Node), stripe: uint32(w.Stripe), object: object}
		if len(w.Data) == 0 {
			delete(s, k)
		} else {
			s[k] = string(w.Data)
		}
	}
}

// readsAs reports whether io serves exactly the state over the given
// universe of keys, whole columns and a range of each.
func readsAs(io chaos.NodeIO, universe []colKey, want colState) error {
	pr, partial := io.(chaos.PartialReader)
	for _, k := range universe {
		got, err := io.ReadColumn(int(k.node), k.object, int(k.stripe))
		exp, ok := want[k]
		switch {
		case !ok && !errors.Is(err, chaos.ErrColumnMissing):
			return fmt.Errorf("%+v: want missing, got %d bytes, %v", k, len(got), err)
		case ok && (err != nil || string(got) != exp):
			return fmt.Errorf("%+v: want %d bytes, got %d bytes, %v", k, len(exp), len(got), err)
		}
		if ok && partial && len(exp) > 2 {
			part, err := pr.ReadColumnAt(int(k.node), k.object, int(k.stripe), 1, len(exp)-2)
			if err != nil || string(part) != exp[1:len(exp)-1] {
				return fmt.Errorf("%+v: range read got %d bytes, %v", k, len(part), err)
			}
		}
	}
	return nil
}

// logBatch is one step of the scripted workload.
type logBatch struct {
	object string
	writes []chaos.ColumnWrite
}

// column makes distinguishable column bytes.
func column(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7)
	}
	return b
}

// scriptedBatches covers first writes, a second object, overwrites, a
// tombstone, a batch of one, and — from "rewrite" on — enough
// overwriting that dead bytes pass live bytes and the log compacts.
func scriptedBatches() []logBatch {
	stripe := func(object string, st int, tag byte, nodes ...int) logBatch {
		b := logBatch{object: object}
		for i, n := range nodes {
			b.writes = append(b.writes, chaos.ColumnWrite{Node: n, Stripe: st, Data: column(tag+byte(i), 300+50*i)})
		}
		return b
	}
	batches := []logBatch{
		stripe("video/a", 0, 1, 0, 4, 8, 12),
		stripe("video/a", 1, 20, 0, 4, 8, 12),
		stripe("b", 0, 40, 1, 5),
		stripe("video/a", 0, 60, 4, 8), // overwrite two
		{object: "video/a", writes: []chaos.ColumnWrite{{Node: 12, Stripe: 0}, {Node: 0, Stripe: 1, Data: column(80, 90)}}}, // tombstone + overwrite
		stripe("b", 3, 90, 5), // a batch of one
	}
	for round := 0; round < 3; round++ {
		batches = append(batches, stripe("video/a", 1, byte(100+10*round), 0, 4, 8, 12))
	}
	return batches
}

// universeOf lists every key the batches touch.
func universeOf(batches []logBatch) []colKey {
	seen := make(colState)
	for _, b := range batches {
		for _, w := range b.writes {
			seen[colKey{node: uint32(w.Node), stripe: uint32(w.Stripe), object: b.object}] = ""
		}
	}
	keys := make([]colKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	return keys
}

func openLog(t testing.TB, dir string) *FileBackend {
	t.Helper()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatalf("NewFileBackend: %v", err)
	}
	t.Cleanup(func() { _ = fb.Close() })
	return fb
}

func logSize(t testing.TB, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCrashColumnLog kills the backend at every crash point of the
// scripted workload — the byte midpoint of each append, before each
// sync, before each compaction's rename — and reopens the directory:
// every acknowledged batch reads back byte-exact, and the batch in
// flight is there entirely or not at all.
func TestCrashColumnLog(t *testing.T) {
	batches := scriptedBatches()
	universe := universeOf(batches)
	crashtest.Matrix(t, crashtest.Scenario{
		Workload: func(t *testing.T, dir string, c *chaos.Crasher, log *crashtest.Log) {
			fb, err := NewFileBackend(dir)
			if err != nil {
				t.Fatalf("NewFileBackend: %v", err)
			}
			fb.crasher = c
			for i, b := range batches {
				if errs := fb.WriteColumnsCtx(context.Background(), b.object, b.writes); errs != nil {
					t.Fatalf("batch %d: %v", i, errs)
				}
				log.Acked(fmt.Sprint(i))
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
		},
		Verify: func(t *testing.T, dir string, log *crashtest.Log, point string, hit int) {
			acked := len(log.List())
			without := make(colState)
			for _, b := range batches[:acked] {
				without.applyWrites(b.object, b.writes)
			}
			fb := openLog(t, dir)
			if err := readsAs(fb, universe, without); err != nil {
				// Not the acknowledged state: then it must be that plus
				// the whole batch in flight, and only where the kill came
				// after the batch's last byte.
				if acked == len(batches) || point == "backend.append.torn" {
					t.Fatalf("after %d acknowledged batches: %v", acked, err)
				}
				with := without.clone()
				with.applyWrites(batches[acked].object, batches[acked].writes)
				if err2 := readsAs(fb, universe, with); err2 != nil {
					t.Fatalf("after %d acknowledged batches: neither without the next batch (%v) nor with all of it (%v)", acked, err, err2)
				}
			}
			// The reopened log takes writes and stays within twice its
			// live bytes.
			if errs := fb.WriteColumnsCtx(context.Background(), "after", []chaos.ColumnWrite{{Node: 2, Stripe: 0, Data: column(7, 64)}}); errs != nil {
				t.Fatalf("write after recovery: %v", errs)
			}
			if size := logSize(t, dir); size > int64(len(logMagic))+2*fb.live {
				t.Fatalf("log of %d bytes for %d live", size, fb.live)
			}
		},
	})
}

// logRecordEdges scans a log image and returns the end offset of every
// record, in order.
func logRecordEdges(image []byte) []int64 {
	var edges []int64
	body := image[len(logMagic):]
	scanLog(bytes.NewReader(body), int64(len(body)), func(_ colKey, off int64, n uint32) {
		edges = append(edges, int64(len(logMagic))+off+int64(n)+recSumLen)
	})
	return edges
}

// TestTruncationSweepColumnLog cuts a log at every record edge, a byte
// either side of each, and every 4 KiB inside its last batch, and opens
// what is left: never a panic, every batch that ends at or before the
// cut byte-exact, nothing of the batch the cut falls in.
func TestTruncationSweepColumnLog(t *testing.T) {
	batches := scriptedBatches()[:6] // no compaction: sizes only grow
	batches = append(batches, logBatch{object: "big", writes: []chaos.ColumnWrite{
		{Node: 3, Stripe: 0, Data: column(1, 9000)}, {Node: 7, Stripe: 0, Data: column(2, 9000)}, {Node: 11, Stripe: 0, Data: column(3, 9000)},
	}})
	universe := universeOf(batches)
	dir := t.TempDir()
	fb := openLog(t, dir)
	states := []colState{{}}
	ends := []int64{int64(len(logMagic))}
	for i, b := range batches {
		if errs := fb.WriteColumnsCtx(context.Background(), b.object, b.writes); errs != nil {
			t.Fatalf("batch %d: %v", i, errs)
		}
		next := states[len(states)-1].clone()
		next.applyWrites(b.object, b.writes)
		states = append(states, next)
		ends = append(ends, logSize(t, dir))
	}
	image, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int64]bool{0: true, 3: true, int64(len(logMagic)): true}
	for _, e := range logRecordEdges(image) {
		cuts[e-1], cuts[e], cuts[e+1] = true, true, true
	}
	for off := ends[len(ends)-2]; off < int64(len(image)); off += 4096 {
		cuts[off] = true
	}
	for cut := range cuts {
		if cut > int64(len(image)) {
			continue
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, logName), image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		survived := 0
		for i, e := range ends {
			if e <= cut {
				survived = i
			}
		}
		cutLog, err := NewFileBackend(sub)
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if err := readsAs(cutLog, universe, states[survived]); err != nil {
			t.Fatalf("cut at %d (%d batches whole): %v", cut, survived, err)
		}
		if got, want := logSize(t, sub), max(ends[survived], int64(len(logMagic))); got != want {
			t.Fatalf("cut at %d: log is %d bytes after open, want the %d of its whole batches", cut, got, want)
		}
		_ = cutLog.Close()
	}
}

// TestColumnLogCompaction: overwriting until dead bytes pass live bytes
// rewrites the log — same readable state, bounded space, and the same
// again after a reopen; a compaction file left by a kill is removed.
func TestColumnLogCompaction(t *testing.T) {
	dir := t.TempDir()
	fb := openLog(t, dir)
	state := make(colState)
	batches := scriptedBatches()
	universe := universeOf(batches)
	peak := int64(0)
	for i, b := range batches {
		if errs := fb.WriteColumnsCtx(context.Background(), b.object, b.writes); errs != nil {
			t.Fatalf("batch %d: %v", i, errs)
		}
		state.applyWrites(b.object, b.writes)
		size := logSize(t, dir)
		if size > int64(len(logMagic))+2*fb.live {
			t.Fatalf("after batch %d: log of %d bytes for %d live", i, size, fb.live)
		}
		peak = max(peak, size)
		if err := readsAs(fb, universe, state); err != nil {
			t.Fatalf("after batch %d: %v", i, err)
		}
	}
	if final := logSize(t, dir); final >= peak {
		t.Fatalf("log never shrank: %d bytes at the end, peak %d — the script no longer triggers compaction", final, peak)
	}
	if err := os.WriteFile(filepath.Join(dir, logTempName), []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openLog(t, dir)
	if err := readsAs(re, universe, state); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logTempName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale compaction file: %v", err)
	}
	if nodes, err := re.Nodes(); err != nil || fmt.Sprint(nodes) != "[0 1 4 5 8 12]" {
		t.Fatalf("Nodes: %v, %v", nodes, err)
	}
}

// TestOldBackendLayoutRefused: a root holding the per-column files of
// earlier versions is refused with ErrBackendLayout and left as it was;
// so is a log of an unknown version.
func TestOldBackendLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "n3", "766964656f.0")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("column"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBackend(dir); !errors.Is(err, ErrBackendLayout) {
		t.Fatalf("old layout: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "n3" {
		t.Fatalf("refused root was modified: %v, %v", entries, err)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "column" {
		t.Fatalf("old column: %q, %v", got, err)
	}

	other := t.TempDir()
	if err := os.WriteFile(filepath.Join(other, logName), []byte("APPRCOL9 something else"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBackend(other); !errors.Is(err, ErrBackendLayout) {
		t.Fatalf("unknown log version: %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(other, logName)); string(got) != "APPRCOL9 something else" {
		t.Fatalf("refused log was modified: %q", got)
	}
}

// TestColumnLogRejectsInvalidColumnAlone: a column the log cannot
// represent fails with ErrInvalid and the rest of its batch lands.
func TestColumnLogRejectsInvalidColumnAlone(t *testing.T) {
	fb := openLog(t, t.TempDir())
	errs := fb.WriteColumnsCtx(context.Background(), "obj", []chaos.ColumnWrite{
		{Node: 1, Stripe: 0, Data: []byte("one")}, {Node: -1, Stripe: 0, Data: []byte("bad")}, {Node: 2, Stripe: 0, Data: []byte("two")},
	})
	if errs == nil || errs[0] != nil || !errors.Is(errs[1], ErrInvalid) || errs[2] != nil {
		t.Fatalf("statuses: %v", errs)
	}
	if got, err := fb.ReadColumn(2, "obj", 0); err != nil || string(got) != "two" {
		t.Fatalf("valid column of the batch: %q, %v", got, err)
	}
	if fb.Syncs() != 1 {
		t.Fatalf("%d syncs for one batch", fb.Syncs())
	}
}

// FuzzColumnLog throws arbitrary bytes at the log scanner — it must not
// panic, must not report a valid prefix or a record beyond the bytes it
// was given, and must not allocate from an announced length — and checks
// that scanning what the writer's encoder produces gives the batch back.
func FuzzColumnLog(f *testing.F) {
	encode := func(recs []logRec) []byte {
		pieces, _ := encodeBatch(recs, 0)
		return bytes.Join(pieces, nil)
	}
	two := encode([]logRec{{k: colKey{1, 0, "obj"}, data: []byte("first column")}, {k: colKey{5, 0, "obj"}}})
	two = append(two, encode([]logRec{{k: colKey{1, 1, "videos/a"}, data: []byte("second batch")}})...)
	f.Add(two, "obj", uint32(1), uint32(0), uint16(4))
	f.Add(two[:len(two)-3], "obj", uint32(1), uint32(0), uint16(0)) // torn tail
	flipped := append([]byte(nil), two...)
	flipped[recHeaderLen+4] ^= 0x40 // a bit of the first column
	f.Add(flipped, "x", uint32(2), uint32(9), uint16(1))
	// Whole records with good CRCs whose countdown does not count down:
	// the first claims seven more follow, the second none.
	var countdown []byte
	for _, left := range []uint32{7, 0} {
		rec := appendRecordHead(nil, colKey{2, 0, "obj"}, 4, left)
		rec = append(rec, "data"...)
		countdown = append(countdown, rec...)
		countdown = binary.LittleEndian.AppendUint32(countdown, crc32.Checksum(rec, castagnoli))
	}
	f.Add(countdown, "", uint32(0), uint32(0), uint16(2))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00abcd"), "y", uint32(3), uint32(3), uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, object string, node, stripe uint32, split uint16) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records := 0
		valid := scanLog(bytes.NewReader(data), int64(len(data)), func(k colKey, off int64, n uint32) {
			records++
			if off < recHeaderLen+int64(len(k.object)) || off+int64(n)+recSumLen > int64(len(data)) {
				t.Fatalf("record at %d+%d outside %d bytes", off, n, len(data))
			}
		})
		runtime.ReadMemStats(&after)
		if valid < 0 || valid > int64(len(data)) || int64(records)*(recHeaderLen+recSumLen) > valid {
			t.Fatalf("valid prefix %d, %d records, of %d bytes", valid, records, len(data))
		}
		// The scanner's own buffers (one name-sized chunk) plus work
		// proportional to the input, whatever lengths it announces.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*maxObjectName+64*len(data)+(1<<20)); grew > limit {
			t.Fatalf("scanning %d bytes allocated %d, limit %d", len(data), grew, limit)
		}

		// scan ∘ append is the identity: a batch of the fuzzed bytes in
		// two columns around a tombstone, then garbage, scans back as
		// exactly that batch first.
		if len(object) > maxObjectName {
			object = object[:maxObjectName]
		}
		cut := int(split) % (len(data) + 1)
		recs := []logRec{
			{k: colKey{node, stripe, object}, data: data[:cut]},
			{k: colKey{node + 1, stripe, object}},
			{k: colKey{node, stripe + 1, object}, data: data[cut:]},
		}
		image := encode(recs)
		whole := int64(len(image))
		image = append(image, data...)
		var got []logRec
		valid = scanLog(bytes.NewReader(image), int64(len(image)), func(k colKey, off int64, n uint32) {
			got = append(got, logRec{k: k, data: image[off : off+int64(n)], loc: colLoc{off: off, n: n}})
		})
		if valid < whole || len(got) < len(recs) {
			t.Fatalf("batch of %d bytes scanned as %d valid bytes, %d records", whole, valid, len(got))
		}
		for i, want := range recs {
			if got[i].k != want.k || !bytes.Equal(got[i].data, want.data) || got[i].loc != want.loc {
				t.Fatalf("record %d: %+v at %+v, want %+v at %+v", i, got[i].k, got[i].loc, want.k, want.loc)
			}
		}
	})
}

// TestColumnLogReadersDuringWritesAndCompaction: readers running beside
// a writer that keeps overwriting (so the log compacts under them) see
// each column entirely in one version or another, never a mix and never
// an error.
func TestColumnLogReadersDuringWritesAndCompaction(t *testing.T) {
	fb := openLog(t, t.TempDir())
	const cols, size, rounds = 4, 8 << 10, 60
	version := func(v int) []chaos.ColumnWrite {
		ws := make([]chaos.ColumnWrite, cols)
		for n := range ws {
			ws[n] = chaos.ColumnWrite{Node: n, Stripe: 0, Data: bytes.Repeat([]byte{byte(v)}, size)}
		}
		return ws
	}
	if errs := fb.WriteColumnsCtx(context.Background(), "obj", version(0)); errs != nil {
		t.Fatal(errs)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := fb.ReadColumn((r+i)%cols, "obj", 0)
				if err != nil || len(got) != size || bytes.Count(got, got[:1]) != size {
					t.Errorf("reader %d: %d bytes, %v: not one whole version", r, len(got), err)
					return
				}
			}
		}(r)
	}
	before := logSize(t, fb.root)
	shrank := false
	for v := 1; v <= rounds; v++ {
		if errs := fb.WriteColumnsCtx(context.Background(), "obj", version(v)); errs != nil {
			t.Fatal(errs)
		}
		after := logSize(t, fb.root)
		shrank = shrank || after < before
		before = after
	}
	close(stop)
	wg.Wait()
	if !shrank {
		t.Fatal("the log never compacted under the readers")
	}
}
