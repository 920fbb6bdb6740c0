package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 8, 1000} {
			hits := make([]int32, n)
			Run(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestRunNested(t *testing.T) {
	// A parallel coder invoked from inside a parallel fan-out must not
	// deadlock, even with the pool saturated.
	var total int64
	Run(16, 0, func(i int) {
		Run(16, 0, func(j int) {
			atomic.AddInt64(&total, 1)
		})
	})
	if total != 256 {
		t.Fatalf("nested Run executed %d of 256 tasks", total)
	}
}

// TestRunNestedFromManyCallers is the regression test for the nested
// deadlock: many goroutines each fan out over the pool, and every task
// fans out again (core.Verify over codewords -> a coder's Stripe). With
// a buffered hand-off a helper could be accepted into the buffer while
// every worker was inside a nested Run waiting for its own helpers, and
// nobody was left to start it. Explicit worker counts keep the test
// meaningful when GOMAXPROCS is 1 (the pool then has a single worker).
func TestRunNestedFromManyCallers(t *testing.T) {
	callers := 4 * runtime.GOMAXPROCS(0)
	const outer, inner, rounds = 8, 8, 50
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					Run(outer, 4, func(int) {
						Run(inner, 4, func(int) {
							total.Add(1)
							runtime.Gosched()
						})
					})
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("nested Run deadlocked after %d of %d tasks\n%s",
			total.Load(), callers*rounds*outer*inner, buf[:runtime.Stack(buf, true)])
	}
	if got, want := total.Load(), int64(callers*rounds*outer*inner); got != want {
		t.Fatalf("nested Run executed %d of %d tasks", got, want)
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("want panic \"boom\", got %v", r)
		}
	}()
	Run(64, 4, func(i int) {
		if i == 10 {
			panic("boom")
		}
	})
}

func TestStripeCoversRange(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		for _, opts := range []Options{{}, {Parallelism: 1}, {ChunkSize: 100}, {Parallelism: 3, ChunkSize: 4096}} {
			covered := make([]int32, size)
			Stripe(size, opts, func(lo, hi int) {
				if lo < 0 || hi > size || lo >= hi {
					t.Errorf("size=%d opts=%+v: bad range [%d,%d)", size, opts, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("size=%d opts=%+v: byte %d covered %d times", size, opts, i, c)
				}
			}
		}
	}
}

func TestChunkBoundsMatchStripe(t *testing.T) {
	for _, size := range []int{1, 500, 1 << 18} {
		for _, opts := range []Options{{}, {ChunkSize: 777}, {Parallelism: 2, ChunkSize: 4096}} {
			type span struct{ lo, hi int }
			var mu sync.Mutex
			seen := map[span]bool{}
			Stripe(size, opts, func(lo, hi int) {
				mu.Lock()
				seen[span{lo, hi}] = true
				mu.Unlock()
			})
			n := Chunks(size, opts)
			if len(seen) != n {
				t.Fatalf("size=%d opts=%+v: Stripe made %d chunks, Chunks says %d", size, opts, len(seen), n)
			}
			for i := 0; i < n; i++ {
				lo, hi := ChunkBounds(size, opts, i)
				if !seen[span{lo, hi}] {
					t.Fatalf("size=%d opts=%+v: ChunkBounds(%d)=[%d,%d) not produced by Stripe", size, opts, i, lo, hi)
				}
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Options workers = %d", o.Workers())
	}
	if o.Chunk() != DefaultChunkSize {
		t.Fatalf("zero Options chunk = %d", o.Chunk())
	}
	if (Options{Parallelism: 3, ChunkSize: 512}).Workers() != 3 {
		t.Fatal("explicit parallelism ignored")
	}
	if Pick(nil) != (Options{}) || Pick([]Options{{Parallelism: 2}, {Parallelism: 5}}).Parallelism != 5 {
		t.Fatal("Pick wrong")
	}
}

func TestBufferPoolZeroesAndRecycles(t *testing.T) {
	b := GetBuffer(1024)
	if len(b) != 1024 {
		t.Fatalf("len=%d", len(b))
	}
	for i := range b {
		b[i] = 0xAB
	}
	PutBuffer(b)
	c := GetBuffer(512)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("recycled buffer byte %d = %#x, want 0", i, v)
		}
	}
	PutBuffer(c)
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines using Run, Stripe and the buffer pool at once;
	// meaningful under -race.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				buf := GetBuffer(4096)
				Stripe(len(buf), Options{ChunkSize: 256}, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = byte(g)
					}
				})
				for i, v := range buf {
					if v != byte(g) {
						t.Errorf("g=%d byte %d = %d", g, i, v)
						return
					}
				}
				PutBuffer(buf)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkRunOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(16, 0, func(int) {})
	}
}
