package resilience

import (
	"sync"
	"time"
)

// State is a node's position in the health state machine: healthy →
// suspect → failed on error streaks, with probation recovery from
// suspect back to healthy.
type State int

// Health states.
const (
	// Healthy: the node serves I/O normally.
	Healthy State = iota
	// Suspect: the node crossed the error threshold; it still serves
	// I/O but must string together successes to recover.
	Suspect
	// Failed: the node crossed the failure threshold. Its owner stops
	// sending it requests (its columns are erasures) until a repair
	// resets it or, with ProbeAfter set, a probe succeeds.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// HealthPolicy tunes the per-node health state machine. Zero fields
// take the owner's defaults (see WithDefaults).
type HealthPolicy struct {
	// SuspectAfter consecutive failures demote healthy → suspect.
	SuspectAfter int
	// FailAfter consecutive failures demote to failed; it is raised to
	// SuspectAfter when set below it.
	FailAfter int
	// ProbationOK consecutive successes promote suspect → healthy.
	ProbationOK int
	// ProbeAfter is how often a failed node is let one real request
	// through as a probe — for nodes that may come back on their own (a
	// restarted DataNode). Zero keeps a failed node failed until Reset.
	ProbeAfter time.Duration
}

// WithDefaults fills every unset (<= 0) field from def.
func (p HealthPolicy) WithDefaults(def HealthPolicy) HealthPolicy {
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = def.SuspectAfter
	}
	if p.FailAfter <= 0 {
		p.FailAfter = def.FailAfter
	}
	if p.FailAfter < p.SuspectAfter {
		p.FailAfter = p.SuspectAfter
	}
	if p.ProbationOK <= 0 {
		p.ProbationOK = def.ProbationOK
	}
	if p.ProbeAfter <= 0 {
		p.ProbeAfter = def.ProbeAfter
	}
	return p
}

type nodeHealth struct {
	state       State
	consecFails int
	// corrupts is the checksum-demotion streak. It is tracked apart
	// from consecFails because the transport-level OK recorded by a
	// successful read would otherwise reset it before the caller's CRC
	// check could fail: only a read of this node that VERIFIES clears
	// it (see Verified), so a node persistently serving damaged bytes
	// escalates suspect → failed even though every I/O "succeeds".
	corrupts  int
	probation int
	probeAt   time.Time // failed with ProbeAfter set: next probe slot
}

// Health is the per-node health state machine. One instance belongs to
// one owner — a store, or a network client — which gates its requests
// on Allow and reports each successful operation with OK; the retry
// wrapper (IO) reports each failed attempt with Fail. Node indexes are
// non-negative. Safe for concurrent use.
type Health struct {
	policy HealthPolicy
	now    func() time.Time // the clock; tests replace it

	mu    sync.Mutex
	nodes []nodeHealth
}

// NewHealth returns a tracker with every node healthy. The policy is
// used as given: fill the owner's defaults with WithDefaults first.
func NewHealth(p HealthPolicy) *Health {
	return &Health{policy: p, now: time.Now}
}

// lock returns the node's entry with h.mu held, growing the table on
// first sight (a client learns of new nodes when its map refreshes).
// The entry is only valid until the caller unlocks.
func (h *Health) lock(id int) *nodeHealth {
	h.mu.Lock()
	for len(h.nodes) <= id {
		h.nodes = append(h.nodes, nodeHealth{})
	}
	return &h.nodes[id]
}

// State returns the node's current health state.
func (h *Health) State(id int) State {
	n := h.lock(id)
	defer h.mu.Unlock()
	return n.state
}

// Allow reports whether a request to the node may proceed. For a failed
// node with ProbeAfter set it reserves the probe slot when one is due,
// so concurrent callers do not stampede a node that just died.
func (h *Health) Allow(id int) bool {
	n := h.lock(id)
	defer h.mu.Unlock()
	if n.state != Failed {
		return true
	}
	if h.policy.ProbeAfter <= 0 {
		return false
	}
	now := h.now()
	if now.Before(n.probeAt) {
		return false
	}
	n.probeAt = now.Add(h.policy.ProbeAfter)
	return true
}

// OK records a successful operation on the node.
func (h *Health) OK(id int) {
	n := h.lock(id)
	defer h.mu.Unlock()
	n.consecFails = 0
	switch {
	case n.state == Failed && h.policy.ProbeAfter > 0:
		// A successful probe: the node is back, but earns trust through
		// probation rather than flipping straight to healthy.
		n.state = Suspect
		n.probation = 1
	case n.state == Suspect:
		n.probation++
		if n.probation >= h.policy.ProbationOK {
			n.state = Healthy
			n.probation = 0
		}
	}
}

// Fail records a failed operation and returns the resulting state.
func (h *Health) Fail(id int) State {
	n := h.lock(id)
	defer h.mu.Unlock()
	n.consecFails++
	return h.demote(n, n.consecFails)
}

// Corrupt records a checksum-demoted read: the node's transport
// answered, but with bytes that failed verification. It feeds the same
// suspect/failed thresholds as transport errors through its own
// streak, which only Verified (a CRC-clean read of this node) or Reset
// clears — so a demote racing an in-flight update is forgiven by the
// next verified read, while genuine stored-data damage keeps the
// streak growing until the node is failed out and repaired.
func (h *Health) Corrupt(id int) State {
	n := h.lock(id)
	defer h.mu.Unlock()
	n.corrupts++
	return h.demote(n, n.corrupts)
}

// demote applies the thresholds to a failure streak. h.mu is held.
func (h *Health) demote(n *nodeHealth, streak int) State {
	n.probation = 0
	switch {
	case streak >= h.policy.FailAfter:
		n.state = Failed
		n.probeAt = h.now().Add(h.policy.ProbeAfter)
	case streak >= h.policy.SuspectAfter && n.state == Healthy:
		n.state = Suspect
	}
	return n.state
}

// Verified records a read of the node that passed checksum
// verification, clearing the corruption streak (its bytes are
// demonstrably intact). Probation credit is not granted here — the OK
// for the same read already counted it.
func (h *Health) Verified(id int) {
	n := h.lock(id)
	defer h.mu.Unlock()
	n.corrupts = 0
}

// Reset returns the node to healthy (a repair provisioned fresh data).
func (h *Health) Reset(id int) {
	n := h.lock(id)
	defer h.mu.Unlock()
	*n = nodeHealth{}
}
