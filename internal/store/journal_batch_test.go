package store

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
)

// stallLeader marks the journal as having an active batch leader, so
// appends pile into the queue instead of committing. releaseAndDrain
// then clears the mark and commits the whole pile as one real append's
// batch — a deterministic way to exercise multi-record batches without
// depending on scheduler timing.
func stallLeader(j *journal) {
	j.mu.Lock()
	j.leader = true
	j.mu.Unlock()
}

func waitQueued(t *testing.T, j *journal, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		q := len(j.queue)
		j.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d appends queued", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func releaseLeader(j *journal) {
	j.mu.Lock()
	j.leader = false
	j.mu.Unlock()
}

// wireBatchCounters attaches fresh obs counters so a test can observe
// the journal's batch/record accounting.
func wireBatchCounters(j *journal) (batches, records *obs.Counter) {
	reg := obs.NewRegistry(false)
	j.batches = reg.Counter("b")
	j.records = reg.Counter("r")
	j.batchBytes = reg.Counter("bb")
	return j.batches, j.records
}

// TestJournalGroupCommitCoalesces proves the tentpole property: N
// appends queued behind a busy leader commit as ONE batch — one
// writeBatch, one fsync — and every append still gets a unique,
// contiguous, monotonically increasing sequence number matching the
// on-disk order.
func TestJournalGroupCommitCoalesces(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, records := wireBatchCounters(j)

	const followers = 15
	stallLeader(j)
	var wg sync.WaitGroup
	seqs := make([]uint64, followers)
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqs[i], errs[i] = j.append(recFailNodes, failRecord{Nodes: []int{i}})
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	// This append becomes the leader and drains the whole pile.
	lastSeq, err := j.append(recFailNodes, failRecord{Nodes: []int{followers}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, e := range errs {
		if e != nil {
			t.Fatalf("append %d: %v", i, e)
		}
	}
	if got := batches.Value(); got != 1 {
		t.Fatalf("committed %d batches, want 1 (coalesced)", got)
	}
	if got := records.Value(); got != followers+1 {
		t.Fatalf("batch records counter %d, want %d", got, followers+1)
	}
	seen := make(map[uint64]bool)
	for i, sq := range seqs {
		if sq == 0 || sq > followers+1 || seen[sq] {
			t.Fatalf("append %d got seq %d (dup or out of range)", i, sq)
		}
		seen[sq] = true
	}
	if seen[lastSeq] || lastSeq == 0 || lastSeq > followers+1 {
		t.Fatalf("leader seq %d collides or out of range", lastSeq)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := readJournal(path)
	if err != nil || torn != 0 {
		t.Fatalf("read: %v, torn %d", err, torn)
	}
	if len(recs) != followers+1 {
		t.Fatalf("%d records on disk, want %d", len(recs), followers+1)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want contiguous from 1", i, r.Seq)
		}
	}
}

// TestJournalPerOpDisablesCoalescing checks the benchmark baseline
// mode: with perOp set, the same queued pile commits one record per
// batch (one fsync each), reproducing pre-group-commit behaviour.
func TestJournalPerOpDisablesCoalescing(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.perOp = true
	batches, records := wireBatchCounters(j)

	const followers = 7
	stallLeader(j)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := j.append(recFailNodes, failRecord{Nodes: []int{i}}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	if _, err := j.append(recFailNodes, failRecord{Nodes: []int{followers}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if b, r := batches.Value(), records.Value(); b != followers+1 || r != followers+1 {
		t.Fatalf("perOp committed %d batches for %d records, want 1:1", b, r)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// decoderFor returns an empty record struct of the type t carries.
func decoderFor(t recType) recordDecoder {
	switch t {
	case recPut:
		return new(putRecord)
	case recUpdate:
		return new(updateRecord)
	case recFailNodes:
		return new(failRecord)
	case recRepairStart:
		return new(repairStartRecord)
	case recRepairStripe:
		return new(repairStripeRecord)
	case recRepairDone:
		return new(repairDoneRecord)
	case recMigrateBegin, recMigrateCommit:
		return new(migrateRecord)
	}
	return nil
}

// queueBatch stalls the journal, queues every body from its own
// goroutine and returns a function that waits for them; the caller's
// next append leads one batch holding all of them.
func queueBatch(t *testing.T, j *journal, cases []recordCase, errs []error) (wait func()) {
	t.Helper()
	stallLeader(j)
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = j.append(tc.t, tc.body)
		}()
	}
	waitQueued(t, j, len(cases))
	releaseLeader(j)
	return wg.Wait
}

// TestJournalBatchTruncationSweep is the group-commit torn-write test:
// one batch holding every record type (populated and empty) is written
// back to back, and the file is then truncated at EVERY byte offset,
// simulating a crash that tore the batch anywhere — mid-header,
// mid-table, mid-payload, exactly between two records. At each offset
// replay must accept exactly the longest whole-record prefix, and every
// accepted record must still decode to what was appended: each
// acknowledged record is all-or-nothing, never partially visible.
func TestJournalBatchTruncationSweep(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := wireBatchCounters(j)
	cases := recordCases()
	errs := make([]error, len(cases))
	wait := queueBatch(t, j, cases, errs)
	if _, err := j.append(recUpdate, updateRecord{Name: "obj", ID: 99, Data: []byte{0xEE}}); err != nil {
		t.Fatal(err)
	}
	wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("append %s: %v", cases[i].name, e)
		}
	}
	if got := batches.Value(); got != 1 {
		t.Fatalf("committed %d batches, want the whole pile in 1", got)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, _, err := readJournal(path)
	if err != nil || len(whole) != len(cases)+1 {
		t.Fatalf("baseline: %d records, %v", len(whole), err)
	}
	// The queue order is the goroutines' arrival order; what matters is
	// that the file holds exactly the appended set.
	want := make(map[string]int)
	for _, tc := range cases {
		want[string(encodeRecord(tc.body))]++
	}
	for _, r := range whole[:len(cases)] {
		want[string(r.Payload)]--
	}
	for payload, n := range want {
		if n != 0 {
			t.Fatalf("payload %x appended/read count off by %d", payload, n)
		}
	}
	// Record boundaries of the batched file, for the boundary assertion.
	boundary := map[int64]int{int64(len(journalMagic)): 0}
	off := int64(len(journalMagic))
	for i, r := range whole {
		off += journalHdrLen + int64(len(r.Payload))
		boundary[off] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		recs, validLen, torn, err := parseJournal(full[:cut:cut])
		if cut < len(journalMagic) {
			if err == nil {
				t.Fatalf("cut %d: headerless journal accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if validLen+torn != int64(cut) {
			t.Fatalf("cut %d: validLen %d + torn %d != size", cut, validLen, torn)
		}
		// validLen must land exactly on a record boundary, and the
		// accepted records must be a byte-exact prefix of the originals.
		n, ok := boundary[validLen]
		if !ok {
			t.Fatalf("cut %d: validLen %d is not a record boundary", cut, validLen)
		}
		if len(recs) != n {
			t.Fatalf("cut %d: %d records for boundary %d", cut, len(recs), n)
		}
		for i, r := range recs {
			if r.Seq != whole[i].Seq || r.Type != whole[i].Type || !bytes.Equal(r.Payload, whole[i].Payload) {
				t.Fatalf("cut %d: record %d mutated by truncation", cut, i)
			}
			if err := r.decode(decoderFor(r.Type)); err != nil {
				t.Fatalf("cut %d: record %d undecodable: %v", cut, i, err)
			}
		}
	}
}

// TestJournalBatchTornByCrash kills the leader at the torn-append crash
// point, which sits at the batch's byte midpoint: with an even number
// of equal-size records that is exactly BETWEEN two records, with an
// odd number it is INSIDE the middle one. Either way no appender is
// acknowledged, replay sees the whole records before the tear and
// nothing else, and a journal reopened at validLen carries on.
func TestJournalBatchTornByCrash(t *testing.T) {
	for _, tc := range []struct {
		name              string
		records           int // batch size, all records the same length
		wantWhole         int
		wantTornRemainder bool
	}{
		{"between-records", 4, 2, false},
		{"inside-a-record", 5, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			crasher := chaos.NewCrasher()
			j, err := createJournal(path, 0, crasher)
			if err != nil {
				t.Fatal(err)
			}
			crasher.Arm("journal.append.torn", 1)
			body := func(i int) updateRecord {
				return updateRecord{Name: "obj", ID: i, Data: bytes.Repeat([]byte{byte(i)}, 64)}
			}
			cases := make([]recordCase, tc.records-1)
			for i := range cases {
				cases[i] = recordCase{t: recUpdate, body: body(i)}
			}
			errs := make([]error, len(cases))
			wait := queueBatch(t, j, cases, errs)
			if ce := crasher.Run(func() { _, _ = j.append(recUpdate, body(len(cases))) }); ce == nil {
				t.Fatal("leader append did not crash")
			}
			wait()
			for i, e := range errs {
				if e == nil {
					t.Fatalf("follower %d acknowledged by a batch that never synced", i)
				}
			}
			_ = j.close()

			recs, validLen, torn, err := readJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.wantWhole || (torn > 0) != tc.wantTornRemainder {
				t.Fatalf("replay sees %d whole records and %d torn bytes, want %d records, torn=%v",
					len(recs), torn, tc.wantWhole, tc.wantTornRemainder)
			}
			for i, r := range recs {
				var ur updateRecord
				if err := r.decode(&ur); err != nil || ur.Name != "obj" || len(ur.Data) != 64 {
					t.Fatalf("record %d: %+v, %v", i, ur, err)
				}
			}
			// Reopen as recovery does: the tear is cut off and appends
			// continue behind the surviving prefix.
			crasher.Disarm()
			j, err = openJournal(path, validLen, recs[len(recs)-1].Seq, crasher)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := j.append(recFailNodes, failRecord{Nodes: []int{1}})
			if err != nil || seq != recs[len(recs)-1].Seq+1 {
				t.Fatalf("append after reopen: seq %d, %v", seq, err)
			}
			if err := j.close(); err != nil {
				t.Fatal(err)
			}
			after, _, torn, err := readJournal(path)
			if err != nil || torn != 0 || len(after) != tc.wantWhole+1 {
				t.Fatalf("after reopen: %d records, %d torn, %v", len(after), torn, err)
			}
		})
	}
}

// TestJournalLeaderDeathFailsQueuedAppenders is the regression test for
// the tier-1 hang: the leader dies mid-commit while other appenders are
// still QUEUED (not in its batch). perOp makes that deterministic — the
// leader's batch is the first queued record only, the rest stay in the
// queue. Before the fix the recover path failed the batch's waiters
// only; leadership was never released and the queued appenders blocked
// forever on a leader that no longer existed.
func TestJournalLeaderDeathFailsQueuedAppenders(t *testing.T) {
	for _, point := range []string{"journal.append.torn", "journal.batch.before-sync"} {
		t.Run(point, func(t *testing.T) {
			path := journalPath(t)
			crasher := chaos.NewCrasher()
			j, err := createJournal(path, 0, crasher)
			if err != nil {
				t.Fatal(err)
			}
			j.perOp = true
			crasher.Arm(point, 1)
			cases := []recordCase{
				{t: recFailNodes, body: failRecord{Nodes: []int{0}}},
				{t: recFailNodes, body: failRecord{Nodes: []int{1}}},
			}
			errs := make([]error, len(cases))
			wait := queueBatch(t, j, cases, errs)
			if ce := crasher.Run(func() { _, _ = j.append(recFailNodes, failRecord{Nodes: []int{2}}) }); ce == nil {
				t.Fatal("leader append did not crash")
			}
			done := make(chan struct{})
			go func() { wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("queued appenders hung after the leader died")
			}
			for i, e := range errs {
				if e == nil {
					t.Fatalf("appender %d acknowledged though nothing was synced", i)
				}
			}
			j.mu.Lock()
			leader, queued := j.leader, len(j.queue)
			j.mu.Unlock()
			if leader || queued != 0 {
				t.Fatalf("dead leader left leader=%v and %d queued appends behind", leader, queued)
			}
			// The dead "process" writes nothing more: a late append is
			// refused at once instead of landing behind the tear.
			if _, err := j.append(recFailNodes, failRecord{Nodes: []int{3}}); err == nil {
				t.Fatal("append accepted after a failed commit")
			}
			_ = j.close()
		})
	}
}

// TestJournalFailedCommitLatches: after a commit fails with an I/O
// error the file's tail is unknown, so the journal refuses appends
// (they could be acknowledged and then lost behind the bad bytes)
// until rotate installs a fresh file.
func TestJournalFailedCommitLatches(t *testing.T) {
	path := journalPath(t)
	j, err := createJournal(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, j, 2)
	good := j.f
	// A read-only descriptor makes the next write fail.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.f = ro
	if _, err := j.append(recFailNodes, failRecord{Nodes: []int{9}}); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	j.f = good
	_ = ro.Close()
	if _, err := j.append(recFailNodes, failRecord{Nodes: []int{9}}); err == nil {
		t.Fatal("append accepted after a failed commit")
	}
	if got := j.lastSeq(); got != 2 {
		t.Fatalf("failed commits moved the durable sequence to %d", got)
	}
	if err := j.rotate(0); err != nil {
		t.Fatal(err)
	}
	if seq, err := j.append(recFailNodes, failRecord{Nodes: []int{9}}); err != nil || seq != 3 {
		t.Fatalf("append after rotate: seq %d, %v", seq, err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := readJournal(path)
	if err != nil || torn != 0 || len(recs) != 3 {
		t.Fatalf("after rotate: %d records, %d torn, %v", len(recs), torn, err)
	}
}

// TestJournalBatchCrashFailsWaiters arms the batch-boundary crash point
// and checks the leader's simulated death does not strand its
// followers: every queued append must return an error (their records
// were never acknowledged as durable), not hang forever.
func TestJournalBatchCrashFailsWaiters(t *testing.T) {
	path := journalPath(t)
	crasher := chaos.NewCrasher()
	j, err := createJournal(path, 0, crasher)
	if err != nil {
		t.Fatal(err)
	}
	crasher.Arm("journal.batch.before-sync", 1)

	const followers = 4
	stallLeader(j)
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = j.append(recFailNodes, failRecord{Nodes: []int{i}})
		}(i)
	}
	waitQueued(t, j, followers)
	releaseLeader(j)
	// The leader append dies at the crash point (panic = simulated kill).
	func() {
		defer func() {
			var ce *chaos.CrashError
			r := recover()
			if r == nil {
				t.Fatal("leader append did not crash")
			}
			if e, ok := r.(error); !ok || !errors.As(e, &ce) {
				panic(r)
			}
		}()
		_, _ = j.append(recFailNodes, failRecord{Nodes: []int{followers}})
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("followers hung after leader crash")
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("follower %d acknowledged despite crashed batch commit", i)
		}
	}
	// The file holds fully written but unsynced records; replay may see
	// all of them or a prefix — but never a torn record.
	recs, _, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		var fr failRecord
		if err := r.decode(&fr); err != nil {
			t.Fatalf("record %d torn: %v", i, err)
		}
	}
	_ = j.close()
}
