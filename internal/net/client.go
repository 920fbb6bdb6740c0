package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"approxcode/internal/chaos"
	"approxcode/internal/obs"
	"approxcode/internal/resilience"
)

// Client is the SDK side of the data plane: it implements chaos.NodeIO,
// chaos.PartialReader, and chaos.CtxIO against remote DataNodes, so a
// store.Store runs over live sockets by setting Config.Backend to a
// *Client.
//
// The client is the resilience wrapper (bounded retries with jittered
// backoff, hedged reads, per-op deadlines — see internal/resilience)
// over a raw transport it owns:
//   - one connection pool per DataNode address, with jittered reconnect
//     behind a fail-fast dial circuit (a down DataNode costs every node
//     slot it serves nothing after the first refusal),
//   - one framed exchange per attempt, the context's deadline and
//     cancellation carried down to the socket (a hedge loser's
//     connection is dropped),
//   - socket failures classified into the NodeIO taxonomy (transportErr)
//     so the wrapper knows what a retry can fix,
//
// plus a per-node health FSM with timed probe-through, so a black-holed
// DataNode degrades into erasure — the store plans reads around it —
// instead of every request burning its full deadline.
//
// It also implements chaos.BatchWriter: a stripe's columns leave as one
// frame per DataNode (see WriteColumnsCtx).
type Client struct {
	retry    RetryPolicy       // the transport's share: dial timeout, redial backoff
	policy   resilience.Policy // the wrapper's share, defaults filled
	poolSize int
	master   string
	io       *resilience.IO
	health   *resilience.Health
	m        clientMetrics

	mu     sync.RWMutex
	routes map[int]*pool    // node index → the pool of the DataNode serving it
	pools  map[string]*pool // DataNode address → its pool and dial circuit
	closed bool
}

// RetryPolicy tunes the client's self-healing I/O. The zero value means
// defaults.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubling per attempt up to
	// MaxBackoff, each jittered into [d/2, d) (defaults 500µs, 10ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeDelay launches a second read on another pooled connection if
	// the first has not answered (default 4ms; negative disables).
	HedgeDelay time.Duration
	// OpDeadline bounds one operation including retries and hedges,
	// when the caller's context has no deadline of its own (default 1s).
	OpDeadline time.Duration
	// DialTimeout bounds one TCP dial (default 500ms).
	DialTimeout time.Duration
	// RedialBackoff is how long a failed dial shuts the dial circuit
	// for, jittered in [x/2, x) (default 100ms).
	RedialBackoff time.Duration
	// Seed makes backoff/redial jitter reproducible; 0 derives one from
	// the clock.
	Seed int64
}

// withDefaults fills the transport's own knobs and the seed; policy()
// fills the rest.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.DialTimeout <= 0 {
		p.DialTimeout = 500 * time.Millisecond
	}
	if p.RedialBackoff <= 0 {
		p.RedialBackoff = 100 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	return p
}

// policy is the wrapper's share of the knobs, wire-scale defaults
// filled in.
func (p RetryPolicy) policy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: p.MaxAttempts,
		BaseBackoff: p.BaseBackoff,
		MaxBackoff:  p.MaxBackoff,
		HedgeDelay:  p.HedgeDelay,
		OpDeadline:  p.OpDeadline,
		Seed:        p.Seed,
	}.WithDefaults(resilience.Policy{
		MaxAttempts: 4,
		BaseBackoff: 500 * time.Microsecond,
		MaxBackoff:  10 * time.Millisecond,
		HedgeDelay:  4 * time.Millisecond,
		OpDeadline:  time.Second,
	})
}

// HealthPolicy tunes the client's per-node health state machine (see
// resilience.HealthPolicy for the fields). Zero fields default to
// suspect after 3 consecutive failures, failed — requests fast-fail
// without touching the network — after 10, healthy again after 5
// consecutive successes, and one probe request per 250ms let through
// to a failed node: a remote node may restart at any time, so a
// successful probe walks it back through suspect probation instead of
// leaving it failed until an operator steps in.
type HealthPolicy = resilience.HealthPolicy

// ClientConfig configures Dial.
type ClientConfig struct {
	// Nodes maps node index → DataNode address. Optional when Master is
	// set (the map is fetched).
	Nodes map[int]string
	// Master is the control-plane address, used to fetch the node map
	// when Nodes is empty and by RefreshMap.
	Master string
	// Retry tunes the self-healing I/O.
	Retry RetryPolicy
	// Health tunes the per-node health FSM.
	Health HealthPolicy
	// PoolSize caps idle pooled connections per DataNode address
	// (default 2).
	PoolSize int
	// Obs receives client metrics (nil disables).
	Obs *obs.Registry
}

// Dial builds a client. No connections are opened until the first
// operation; a node map must come from Nodes or the Master.
func Dial(cfg ClientConfig) (*Client, error) {
	nodes := cfg.Nodes
	if len(nodes) == 0 {
		if cfg.Master == "" {
			return nil, fmt.Errorf("%w: client needs a node map or a master", ErrInvalid)
		}
		fetched, err := FetchNodeMap(cfg.Master, cfg.Retry.DialTimeout)
		if err != nil {
			return nil, err
		}
		nodes = make(map[int]string, len(fetched))
		for node, info := range fetched {
			nodes[node] = info.Addr
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("%w: master has no registered nodes", ErrInvalid)
		}
	}
	retry := cfg.Retry.withDefaults()
	poolSize := cfg.PoolSize
	if poolSize <= 0 {
		poolSize = 2
	}
	c := &Client{
		retry:    retry,
		policy:   retry.policy(),
		poolSize: poolSize,
		master:   cfg.Master,
		health: resilience.NewHealth(cfg.Health.WithDefaults(HealthPolicy{
			SuspectAfter: 3, FailAfter: 10, ProbationOK: 5, ProbeAfter: 250 * time.Millisecond,
		})),
		m:      newClientMetrics(cfg.Obs),
		routes: make(map[int]*pool),
		pools:  make(map[string]*pool),
	}
	c.io = resilience.Wrap(wire{c}, c.policy, c.health, resilience.Metrics{
		Retries:   c.m.retries,
		Hedges:    c.m.hedges,
		HedgeWins: c.m.hedgeWins,
	})
	for node, addr := range nodes {
		c.route(node, addr)
	}
	return c, nil
}

// route points node at addr's pool, creating the pool for an address
// seen for the first time. Callers hold c.mu (or own c exclusively).
func (c *Client) route(node int, addr string) {
	p := c.pools[addr]
	if p == nil {
		p = &pool{addr: addr, max: c.poolSize}
		c.pools[addr] = p
	}
	c.routes[node] = p
}

// Nodes returns the node indexes the client can route to, sorted.
func (c *Client) Nodes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.routes))
	for node := range c.routes {
		out = append(out, node)
	}
	sort.Ints(out)
	return out
}

// RefreshMap re-fetches the node map from the master, rerouting nodes
// whose DataNode moved and adding newly registered ones. Nodes that
// vanished from the master keep their last known route (the health FSM
// will fail them if they are really gone).
func (c *Client) RefreshMap() error {
	if c.master == "" {
		return fmt.Errorf("%w: client has no master", ErrInvalid)
	}
	fetched, err := FetchNodeMap(c.master, c.retry.DialTimeout)
	if err != nil {
		return err
	}
	var stale []*pool
	c.mu.Lock()
	if !c.closed {
		for node, info := range fetched {
			c.route(node, info.Addr)
		}
		// A pool no node routes to any more belonged to a DataNode that
		// moved or left.
		used := make(map[*pool]bool, len(c.pools))
		for _, p := range c.routes {
			used[p] = true
		}
		for addr, p := range c.pools {
			if !used[p] {
				stale = append(stale, p)
				delete(c.pools, addr)
			}
		}
	}
	c.mu.Unlock()
	for _, p := range stale {
		p.closeIdle()
	}
	return nil
}

// Close drops all pooled connections. In-flight operations fail as
// their sockets close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pools := make([]*pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	for _, p := range pools {
		p.closeIdle()
	}
	return nil
}

func (c *Client) pool(node int) (*pool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, fmt.Errorf("%w: %w", chaos.ErrNodeUnavailable, ErrClosed)
	}
	p := c.routes[node]
	if p == nil {
		return nil, fmt.Errorf("%w: no route to node %d", ErrInvalid, node)
	}
	return p, nil
}

// pool is one DataNode's connection pool plus its dial circuit, shared
// by every node index the DataNode serves.
type pool struct {
	addr string
	max  int

	mu       sync.Mutex
	idle     []net.Conn
	nextDial time.Time // dial circuit: closed until this instant after a failed dial
}

// get returns a pooled connection or dials a new one.
func (p *pool) get(ctx context.Context, c *Client) (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	if next := p.nextDial; !next.IsZero() && time.Now().Before(next) {
		p.mu.Unlock()
		c.m.fastFails.Inc()
		return nil, fmt.Errorf("%w: %s: dial circuit open", chaos.ErrNodeUnavailable, p.addr)
	}
	p.mu.Unlock()

	c.m.dials.Inc()
	d := net.Dialer{Timeout: c.retry.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		c.m.dialFailures.Inc()
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's context expired or was cancelled (hedge loser,
			// op deadline) — that says nothing about the node's health,
			// so leave the dial circuit closed.
			return nil, fmt.Errorf("%w: dial %s: %w", ErrTimeout, p.addr, ctxErr)
		}
		p.mu.Lock()
		p.nextDial = time.Now().Add(c.io.Jitter(c.retry.RedialBackoff))
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: dial %s: %v", chaos.ErrNodeUnavailable, p.addr, err)
	}
	p.mu.Lock()
	p.nextDial = time.Time{}
	p.mu.Unlock()
	return conn, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full).
func (p *pool) put(conn net.Conn) {
	p.mu.Lock()
	if len(p.idle) < p.max {
		p.idle = append(p.idle, conn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = conn.Close()
}

func (p *pool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, conn := range idle {
		_ = conn.Close()
	}
}

// roundTrip performs one framed request/response exchange with node's
// DataNode on one connection: the request is head followed by bulk (see
// writeFrame), the answer must be of type want, and its body is
// returned. The connection is pooled again only after a fully clean
// exchange — any transport hiccup, timeout, or protocol violation
// poisons it.
func (c *Client) roundTrip(ctx context.Context, node int, want msgType, head []byte, bulk ...[]byte) ([]byte, error) {
	p, err := c.pool(node)
	if err != nil {
		return nil, err
	}
	conn, err := p.get(ctx, c)
	if err != nil {
		return nil, err
	}
	good := false
	defer func() {
		if good {
			p.put(conn)
		} else {
			_ = conn.Close()
		}
	}()

	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	// Cancellation (e.g. a hedge losing the race) unblocks the socket
	// immediately instead of waiting out the deadline.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()

	if err := writeFrame(conn, head, bulk...); err != nil {
		return nil, c.transportErr(ctx, node, "send", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return nil, c.transportErr(ctx, node, "receive", err)
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	switch msgType(resp[0]) {
	case msgErrResp:
		// A structured error leaves the connection in protocol sync.
		if !stop() {
			return nil, fmt.Errorf("%w: node %d", ErrTimeout, node)
		}
		_ = conn.SetDeadline(time.Time{})
		good = true
		return nil, decodeErrResp(resp[1:])
	case want:
		if !stop() {
			// Cancellation raced the response; the deadline may already
			// have poisoned the socket, so do not pool it.
			return resp[1:], nil
		}
		_ = conn.SetDeadline(time.Time{})
		good = true
		return resp[1:], nil
	default:
		return nil, fmt.Errorf("%w: unexpected response type 0x%02x", ErrProtocol, resp[0])
	}
}

// transportErr classifies a failure of an established connection:
// deadline expiry maps to ErrTimeout, everything else (reset, EOF — a
// stale pooled socket, a DataNode dying under the op, a chaos-dropped
// connection) to chaos.ErrTransient: the exchange broke, which a retry
// on a fresh connection can fix. Whether the node is actually down is
// the next dial's verdict (refused → chaos.ErrNodeUnavailable).
func (c *Client) transportErr(ctx context.Context, node int, verb string, err error) error {
	ctxErr := ctx.Err()
	var nerr net.Error
	if ctxErr == nil && errors.As(err, &nerr) && nerr.Timeout() {
		// The only socket deadline is the context's, and it can fire a
		// moment before the context reports itself expired.
		ctxErr = context.DeadlineExceeded
	}
	if ctxErr != nil {
		return fmt.Errorf("%w: node %d %s: %w", ErrTimeout, node, verb, ctxErr)
	}
	return fmt.Errorf("%w: node %d %s: %v", chaos.ErrTransient, node, verb, err)
}

// wire is the raw transport under the resilience wrapper: one framed
// exchange per call, no retries, failures already classified.
type wire struct{ c *Client }

func (w wire) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	return w.c.roundTrip(ctx, node, msgDataResp, encodeReadReq(node, object, stripe))
}

func (w wire) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	return w.c.roundTrip(ctx, node, msgDataResp, encodeReadAtReq(node, object, stripe, off, n))
}

func (w wire) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	return chaos.ErrAt(w.c.sendBatch(ctx, object, []chaos.ColumnWrite{{Node: node, Stripe: stripe, Data: data}}), 0)
}

// sendBatch is one write frame: the columns, all routed to one DataNode
// (the first column's), leave as the frame head plus the callers' own
// slices, and one status per column comes back — nil when all landed. A
// failed exchange fails every column alike.
func (c *Client) sendBatch(ctx context.Context, object string, writes []chaos.ColumnWrite) []error {
	c.m.writeBatches.Inc()
	body, err := c.roundTrip(ctx, writes[0].Node, msgWriteBatchResp,
		encodeWriteBatchReq(object, writes), columnData(writes)...)
	var errs []error
	if err == nil {
		errs, err = decodeWriteBatchResp(body, len(writes))
	}
	if err != nil {
		errs = make([]error, len(writes))
		for i := range errs {
			errs[i] = err
		}
	}
	return errs
}

// rpc accounts one client operation (counted once, however many
// attempts the wrapper makes) and is the health FSM's owner side: the
// gate in front of op, the success report after it.
func (c *Client) rpc(node int, rm *rpcMetrics, op func() ([]byte, error)) (data []byte, err error) {
	rm.total.Inc()
	t0 := time.Now()
	switch {
	case node < 0:
		err = fmt.Errorf("%w: negative node %d", ErrInvalid, node)
	case !c.health.Allow(node):
		c.m.fastFails.Inc()
		err = fmt.Errorf("%w: node %d health-failed at client", chaos.ErrNodeUnavailable, node)
	default:
		if data, err = op(); err == nil {
			c.health.OK(node)
		}
	}
	rm.seconds.Observe(time.Since(t0))
	if err != nil {
		rm.errors.Inc()
		return nil, err
	}
	rm.bytes.Add(int64(len(data)))
	return data, nil
}

// --- chaos.CtxIO ---

// ReadColumnCtx implements chaos.CtxIO.
func (c *Client) ReadColumnCtx(ctx context.Context, node int, object string, stripe int) ([]byte, error) {
	return c.rpc(node, &c.m.read, func() ([]byte, error) {
		return c.io.ReadColumnCtx(ctx, node, object, stripe)
	})
}

// ReadColumnAtCtx implements chaos.CtxIO.
func (c *Client) ReadColumnAtCtx(ctx context.Context, node int, object string, stripe, off, n int) ([]byte, error) {
	return c.rpc(node, &c.m.readAt, func() ([]byte, error) {
		return c.io.ReadColumnAtCtx(ctx, node, object, stripe, off, n)
	})
}

// WriteColumnCtx implements chaos.CtxIO.
func (c *Client) WriteColumnCtx(ctx context.Context, node int, object string, stripe int, data []byte) error {
	_, err := c.rpc(node, &c.m.write, func() ([]byte, error) {
		return nil, c.io.WriteColumnCtx(ctx, node, object, stripe, data)
	})
	if err == nil {
		// rpc counts the bytes that came back; a write's are the ones
		// that went out.
		c.m.write.bytes.Add(int64(len(data)))
	}
	return err
}

// --- chaos.BatchWriter ---

// maxBatchPayload is how many column bytes one write frame carries; a
// DataNode's share of a larger batch goes out as several frames.
const maxBatchPayload = maxFrame / 2

// WriteColumnsCtx implements chaos.BatchWriter: the writes are grouped
// by the DataNode serving each column's node and every group leaves as
// one frame, so a DataNode makes its share of a stripe durable with one
// commit. DataNodes are visited one after another — what a Put waits for
// is the number of durable commits, not their order (DESIGN.md §10) —
// and each group is one resilience operation: one deadline, retried as a
// unit with only the columns still failing. Accounting is per column,
// the same as len(writes) WriteColumnCtx calls.
func (c *Client) WriteColumnsCtx(ctx context.Context, object string, writes []chaos.ColumnWrite) []error {
	rm := &c.m.write
	rm.total.Add(int64(len(writes)))
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(writes))
		}
		errs[i] = err
		rm.errors.Inc()
	}
	// Gate and group. A batch spans a handful of DataNodes, so groups
	// are found by scanning.
	type group struct {
		p      *pool
		writes []chaos.ColumnWrite
		at     []int // writes[i] is the caller's writes[at[i]]
		bytes  int
	}
	var groups []*group
	for i, w := range writes {
		p, err := c.pool(w.Node)
		switch {
		case w.Node < 0:
			err = fmt.Errorf("%w: negative node %d", ErrInvalid, w.Node)
		case err == nil && !c.health.Allow(w.Node):
			c.m.fastFails.Inc()
			err = fmt.Errorf("%w: node %d health-failed at client", chaos.ErrNodeUnavailable, w.Node)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		var g *group
		for _, have := range groups {
			if have.p == p && have.bytes+len(w.Data) <= maxBatchPayload {
				g = have
			}
		}
		if g == nil {
			g = &group{p: p}
			groups = append(groups, g)
		}
		g.writes, g.at, g.bytes = append(g.writes, w), append(g.at, i), g.bytes+len(w.Data)
	}
	for _, g := range groups {
		t0 := time.Now()
		res := c.io.RetryColumns(ctx, g.writes, func(ctx context.Context, pending []chaos.ColumnWrite) []error {
			return c.sendBatch(ctx, object, pending)
		})
		rm.seconds.Observe(time.Since(t0))
		for i, w := range g.writes {
			if err := chaos.ErrAt(res, i); err != nil {
				fail(g.at[i], err)
				continue
			}
			c.health.OK(w.Node)
			rm.bytes.Add(int64(len(w.Data)))
		}
	}
	return errs
}

// --- chaos.NodeIO + chaos.PartialReader ---

// ReadColumn implements chaos.NodeIO.
func (c *Client) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	return c.ReadColumnCtx(context.Background(), node, object, stripe)
}

// ReadColumnAt implements chaos.PartialReader.
func (c *Client) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	return c.ReadColumnAtCtx(context.Background(), node, object, stripe, off, n)
}

// WriteColumn implements chaos.NodeIO.
func (c *Client) WriteColumn(node int, object string, stripe int, data []byte) error {
	return c.WriteColumnCtx(context.Background(), node, object, stripe, data)
}

// Ping round-trips a health probe to the node's DataNode, bypassing
// retries and hedging: one attempt, one verdict.
func (c *Client) Ping(ctx context.Context, node int) error {
	c.m.ping.total.Inc()
	t0 := time.Now()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.policy.OpDeadline)
		defer cancel()
	}
	_, err := c.roundTrip(ctx, node, msgOKResp, newEnc(msgPingReq).b)
	c.m.ping.seconds.Observe(time.Since(t0))
	if err != nil {
		c.m.ping.errors.Inc()
	}
	return err
}
