package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
	netio "approxcode/internal/net"
	"approxcode/internal/obs"
	"approxcode/internal/store"
	"approxcode/internal/tier"
)

// geometry is the code and column size every workload shares.
type geometry struct {
	code     core.Params
	nodeSize int
}

// geo is APPR.RS(5,1,2,4,Uneven) over 26 node slots with 128 KiB
// columns: the 32 KiB sub-block holds the largest segment (a 24 KiB I
// frame × 1.15). A segment never leaves its slot, so a sub-block smaller
// than a segment multiplies stripes — 64 KiB columns with 96 KiB I
// frames store 7.9 bytes per user byte.
var geo = geometry{
	code:     core.Params{Family: core.FamilyRS, K: 5, R: 1, G: 2, H: 4, Structure: core.Uneven},
	nodeSize: 128 << 10,
}

func (g geometry) nodes() int { return g.code.H*(g.code.K+g.code.R) + g.code.G }

// dataNode is the node index of data column j of local stripe l.
func (g geometry) dataNode(l, j int) int { return l*(g.code.K+g.code.R) + j }

const tcpServers = 4

// config is one invocation's sizing. The full sizes are ISSUE.md's;
// smoke shrinks them so `go test` exercises every path in seconds.
type config struct {
	seed    int64
	seconds time.Duration
	warmup  time.Duration
	clients int
	setups  int
	trace   bool
	outDir  string

	ingestObjects   int
	playbackObjects int
	degradedObjects int
	tcpObjects      int
	cacheBytes      int64
	cycleGetSegs    int // degraded GetSegment per cycle
	cycleGets       int // degraded whole-object Get per cycle
	cycleVerify     int // objects byte-checked after each repair
	tracePicks      int // Zipf picks in the playback trace list
	traceIters      int // iterations in the tcp trace list
	probeTime       time.Duration
}

func fullConfig() config {
	return config{
		seconds: 15 * time.Second, warmup: 2 * time.Second, setups: 3,
		clients:       min(runtime.NumCPU(), 4),
		ingestObjects: 96, playbackObjects: 128, degradedObjects: 128, tcpObjects: 64,
		cacheBytes:   8 << 20,
		cycleGetSegs: 20000, cycleGets: 64, cycleVerify: 16,
		tracePicks: 600, traceIters: 6,
		probeTime: 100 * time.Millisecond,
	}
}

func smokeConfig() config {
	c := fullConfig()
	c.seconds, c.warmup, c.setups = time.Second, 200*time.Millisecond, 1
	c.ingestObjects, c.playbackObjects, c.degradedObjects, c.tcpObjects = 8, 8, 8, 8
	// 8 objects put one object in the hot tier; keep the cache smaller
	// than it so eviction still runs.
	c.cacheBytes = 1 << 20
	c.cycleGetSegs, c.cycleGets, c.cycleVerify = 600, 4, 2
	c.tracePicks, c.traceIters = 40, 2
	c.probeTime = 5 * time.Millisecond
	return c
}

// tmpDir makes a fresh directory under the output directory; the
// benchmark reads and writes nowhere else.
func (c config) tmpDir(label string) (string, error) {
	root := filepath.Join(c.outDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, label+"-")
}

// env is one store under test with everything around it.
type env struct {
	st     *store.Store
	corpus *corpus
	// tr is nil on untraced runs; nodeio and backend count at the two
	// pass-throughs and are nil when the pass-through is not installed.
	tr      *tracer
	nodeio  *ioCounts
	backend *ioCounts
	// clientObs is the netio.Client's registry (tcp_mixed only).
	clientObs *obs.Registry
	// tiers is each corpus object's pinned tier (playback_mem only).
	tiers []tier.Level
	// migrateSeconds / migrateBytes time the tier pinning in set-up.
	migrateSeconds float64
	migrateBytes   int64
	// stored reports bytes at rest.
	stored  func() (int64, error)
	closers []func() error
}

func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// storeConfig is the in-process store configuration. A traced store gets
// the nodeio pass-through via WrapIO, which moves it off the plainIO
// fast path onto the retry path; hedging is switched off there so a
// scheduling stall cannot add a second read and the call counts repeat
// exactly.
func (e *env) storeConfig(cacheBytes int64) store.Config {
	cfg := store.Config{Code: geo.code, NodeSize: geo.nodeSize, CacheBytes: cacheBytes}
	if e.tr != nil {
		cfg.Retry = store.RetryPolicy{HedgeDelay: -1}
		cfg.WrapIO = func(inner chaos.NodeIO) chaos.NodeIO {
			var tap chaos.NodeIO
			tap, e.nodeio = newTap(inner, layerNodeIO, e.tr)
			return tap
		}
	}
	return cfg
}

// preload Puts the whole corpus with the workload's client count.
func (e *env) preload(clients int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(e.corpus.objects); i += clients {
				o := e.corpus.objects[i]
				if err := e.st.Put(o.name, o.segs); err != nil {
					errs[c] = fmt.Errorf("preload %s: %w", o.name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *env) memStored() (int64, error) { return e.st.Stats().StoredBytes, nil }

// setupMem opens an in-process store, preloads n objects and, when
// pinTiers is set, pins tiers by Zipf rank: the first n/16 ranks hot
// (replicated and cached), ranks from n/2 on cold (globals dropped).
func setupMem(cfg config, n int, cacheBytes int64, pinTiers bool, tr *tracer) (*env, error) {
	e := &env{corpus: genCorpus(cfg.seed, n), tr: tr}
	st, err := store.Open(e.storeConfig(cacheBytes))
	if err != nil {
		return nil, err
	}
	e.st = st
	e.stored = e.memStored
	if err := e.preload(cfg.clients); err != nil {
		return nil, err
	}
	if !pinTiers {
		return e, nil
	}
	e.tiers = make([]tier.Level, n)
	hot, cold := max(n/16, 1), n/2
	start := time.Now()
	for rank, o := range e.corpus.objects {
		switch {
		case rank < hot:
			e.tiers[rank] = tier.Hot
		case rank >= cold:
			e.tiers[rank] = tier.Cold
		default:
			continue
		}
		if err := st.MigrateObject(o.name, e.tiers[rank]); err != nil {
			return nil, fmt.Errorf("pin %s %s: %w", o.name, e.tiers[rank], err)
		}
		e.migrateBytes += o.bytes
	}
	e.migrateSeconds = time.Since(start).Seconds()
	return e, nil
}

// setupDurable opens an empty journaled store in a fresh directory
// (group commit on, the production flush policy).
func setupDurable(cfg config, c *corpus, tr *tracer) (*env, string, error) {
	dir, err := cfg.tmpDir("ingest")
	if err != nil {
		return nil, "", err
	}
	e := &env{corpus: c, tr: tr}
	e.closers = append(e.closers, func() error { return os.RemoveAll(dir) })
	st, _, err := store.OpenDurable(dir, e.storeConfig(0))
	if err != nil {
		_ = e.close()
		return nil, "", err
	}
	e.st = st
	e.stored = e.memStored
	return e, dir, nil
}

// setupTCP starts four DataNode servers on loopback, each over its own
// FileBackend directory, node n on server n%4, dials them with the
// static map and default pool, and preloads n objects through the
// single-attempt store path.
func setupTCP(cfg config, n int, tr *tracer) (*env, error) {
	e := &env{corpus: genCorpus(cfg.seed, n), tr: tr}
	fail := func(err error) (*env, error) {
		_ = e.close()
		return nil, err
	}
	root, err := cfg.tmpDir("tcp")
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() error { return os.RemoveAll(root) })
	if tr != nil {
		e.backend = &ioCounts{}
	}
	addrs := make([]string, tcpServers)
	for s := 0; s < tcpServers; s++ {
		fb, err := netio.NewFileBackend(filepath.Join(root, fmt.Sprintf("dn%d", s)))
		if err != nil {
			return fail(err)
		}
		var backend chaos.NodeIO = fb
		if tr != nil {
			backend = newTapCounting(fb, layerBackend, tr, e.backend)
		}
		srv, err := netio.NewServer(netio.ServerConfig{Backend: backend})
		if err != nil {
			return fail(err)
		}
		e.closers = append(e.closers, srv.Close)
		addrs[s] = srv.Addr()
	}
	nodes := make(map[int]string, geo.nodes())
	for node := 0; node < geo.nodes(); node++ {
		nodes[node] = addrs[node%tcpServers]
	}
	e.clientObs = obs.NewRegistry(false)
	client, err := netio.Dial(netio.ClientConfig{
		Nodes: nodes, Obs: e.clientObs,
		Retry: netio.RetryPolicy{Seed: cfg.seed},
	})
	if err != nil {
		return fail(err)
	}
	e.closers = append(e.closers, client.Close)
	var backend chaos.NodeIO = client
	if tr != nil {
		backend, e.nodeio = newTap(client, layerNodeIO, tr)
	}
	st, err := store.Open(store.Config{Code: geo.code, NodeSize: geo.nodeSize, Backend: backend})
	if err != nil {
		return fail(err)
	}
	e.st = st
	e.stored = func() (int64, error) { return dirBytes(root) }
	if err := e.preload(cfg.clients); err != nil {
		return fail(err)
	}
	return e, nil
}

// dirBytes sums the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
