// Package parallel is the shared execution engine behind every erasure
// coder's hot path: a reusable goroutine worker pool, a cache-friendly
// byte-range striper, and a sync.Pool-backed scratch-buffer allocator.
//
// Encoding and decoding throughput is memory-bound, so the engine's job
// is to keep every core streaming over a disjoint, cache-sized slice of
// the stripe. Coders express their work as independent tasks (parity
// destination x byte chunk, codeword, decode step) and hand them to Run
// or Stripe; the engine fans them over a fixed pool of GOMAXPROCS
// goroutines that live for the life of the process, so steady-state
// encoding spawns no goroutines at all.
//
// Reentrant use (a parallel coder invoked from inside a parallel
// codeword fan-out) cannot deadlock, for two reasons that both matter.
// The calling goroutine always executes tasks itself, so a Run needs no
// helper to finish. And the hand-off to the pool is unbuffered: a
// helper is accepted only by a worker that is idle at that instant and
// starts it at once, so a Run only ever waits on helpers that are
// already running — never on one parked in a queue behind workers that
// are themselves blocked inside a nested Run waiting for their own
// helpers. (A buffered hand-off had exactly that cycle: with every
// worker inside a nested Run, the helpers they waited for sat in the
// buffer with nobody left to start them.) When no worker is idle the
// call degrades to inline execution on the caller.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkSize is the byte-range grain used when Options.ChunkSize
// is zero: large enough to amortize task dispatch, small enough that a
// chunk of source plus destination stays L2-resident.
const DefaultChunkSize = 128 << 10

// Align is the boundary chunk edges are rounded down to. 64 keeps chunk
// boundaries off shared cache lines AND makes every interior chunk a
// whole number of SIMD blocks for the gf256 kernels (32-byte AVX2,
// 16-byte SSSE3/NEON), so only the final chunk of a stripe ever runs a
// scalar tail loop.
const Align = 64

// Options tunes how a coder uses the engine. The zero value means
// "GOMAXPROCS workers, DefaultChunkSize chunks" and is the right choice
// almost everywhere; Parallelism: 1 forces fully serial execution
// (bit-identical results either way — the work decomposition never
// depends on worker count).
type Options struct {
	// Parallelism caps the number of goroutines (including the caller)
	// working on one operation. 0 means runtime.GOMAXPROCS(0); 1 runs
	// serially on the calling goroutine.
	Parallelism int
	// ChunkSize is the target bytes per striped task. 0 means
	// DefaultChunkSize. Smaller chunks spread small stripes over more
	// cores at the price of dispatch overhead.
	ChunkSize int
}

// Workers resolves Parallelism to a concrete worker count.
func (o Options) Workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// Chunk resolves ChunkSize to a concrete chunk byte count.
func (o Options) Chunk() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// EffectiveWorkers is Workers capped at GOMAXPROCS: the number of tasks
// that can actually make progress at once. Requesting more parallelism
// than there are processors buys only dispatch overhead, so the striping
// guards use this to decide when to fall back to the serial path (the
// decomposition itself still follows Workers, keeping results
// bit-identical).
func (o Options) EffectiveWorkers() int {
	w := o.Workers()
	if g := runtime.GOMAXPROCS(0); w > g {
		return g
	}
	return w
}

// Pick merges a variadic options tail (the idiom every coder
// constructor uses) into a single Options value: the last element wins,
// absent means the zero value.
func Pick(opts []Options) Options {
	if len(opts) == 0 {
		return Options{}
	}
	return opts[len(opts)-1]
}

// pool is the process-wide worker set. Workers are started lazily on
// first parallel call and never exit. jobs is unbuffered on purpose:
// a send succeeds only into a worker blocked in receive, so an accepted
// job is a running job (see the package doc for why a buffer deadlocks
// nested Runs), and a saturated pool sheds load onto callers instead of
// queueing.
var pool struct {
	once sync.Once
	jobs chan func()
}

func ensurePool() {
	pool.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		pool.jobs = make(chan func())
		for i := 0; i < n; i++ {
			go func() {
				for f := range pool.jobs {
					f()
				}
			}()
		}
	})
}

// trySubmit hands a job to an idle worker without blocking; false means
// every worker is busy and the caller should absorb the work itself.
func trySubmit(f func()) bool {
	select {
	case pool.jobs <- f:
		return true
	default:
		return false
	}
}

// recovered boxes a panic value so atomic.Value sees one concrete type.
type recovered struct{ v any }

// Run executes fn(i) for every i in [0, n), spreading calls over up to
// `workers` goroutines (0 = GOMAXPROCS) drawn from the shared pool. The
// calling goroutine participates and helpers are only ever handed to
// idle workers, so Run needs no pool capacity to finish — under pool
// saturation or reentrant use it degrades toward inline execution. Run
// returns when every call has finished. A panic in fn stops the
// remaining work and is re-raised on the caller.
//
// Tasks are claimed from a shared atomic counter, so fn must be safe to
// call concurrently for distinct i; the index order is unspecified.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 1 || workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ensurePool()
	var (
		next     int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	loop := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.Store(recovered{r})
				atomic.StoreInt64(&next, int64(n)) // stop the other workers
			}
		}()
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		if !trySubmit(func() { defer wg.Done(); loop() }) {
			wg.Done()
			break // saturated: the caller and already-submitted helpers finish the rest
		}
	}
	loop()
	wg.Wait()
	if r, ok := panicked.Load().(recovered); ok {
		panic(r.v)
	}
}

// Stripe splits the byte range [0, size) into chunks of roughly
// opts.Chunk() bytes (boundaries aligned down to 64 bytes, except the
// final chunk) and calls fn(lo, hi) for each chunk across the pool.
// fn must treat disjoint ranges independently.
func Stripe(size int, opts Options, fn func(lo, hi int)) {
	if size <= 0 {
		return
	}
	chunk := opts.Chunk()
	workers := opts.Workers()
	if opts.EffectiveWorkers() == 1 || size <= chunk {
		fn(0, size)
		return
	}
	if chunk > Align {
		chunk -= chunk % Align
	}
	n := (size + chunk - 1) / chunk
	Run(n, workers, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > size {
			hi = size
		}
		fn(lo, hi)
	})
}

// Chunks returns how many fn calls Stripe would make for the given size,
// letting coders build (task x chunk) cross products with the same
// boundaries Stripe would use.
func Chunks(size int, opts Options) int {
	if size <= 0 {
		return 0
	}
	chunk := opts.Chunk()
	if opts.EffectiveWorkers() == 1 || size <= chunk {
		return 1
	}
	if chunk > Align {
		chunk -= chunk % Align
	}
	return (size + chunk - 1) / chunk
}

// ChunkBounds returns the byte range of chunk i of Chunks(size, opts),
// matching Stripe's boundaries.
func ChunkBounds(size int, opts Options, i int) (lo, hi int) {
	chunk := opts.Chunk()
	if opts.EffectiveWorkers() == 1 || size <= chunk {
		return 0, size
	}
	if chunk > Align {
		chunk -= chunk % Align
	}
	lo = i * chunk
	hi = lo + chunk
	if hi > size {
		hi = size
	}
	return lo, hi
}

// Scratch-buffer allocator ---------------------------------------------------

// bufPool recycles scratch shards (verify buffers, delta staging). The
// pool holds *[]byte to keep Put allocation-free in the steady state.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns a zeroed scratch buffer of length n from the shared
// pool. Return it with PutBuffer when done.
func GetBuffer(n int) []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	bufPool.Put(p)
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must
// not use b afterwards.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := bufPool.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}
