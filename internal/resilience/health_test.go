package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the injected clock: it only moves when a step says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestHealth(p HealthPolicy) (*Health, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := NewHealth(p)
	h.now = clk.now
	return h, clk
}

// step is one event fed to node 0, with the state and gate expected
// right after it.
type step struct {
	ev    string // fail, ok, corrupt, verified, reset, or +<duration> to move the clock
	want  State
	allow bool // what Allow reports after the event (consumes a due probe slot)
}

func runSteps(t *testing.T, p HealthPolicy, steps []step) {
	t.Helper()
	h, clk := newTestHealth(p)
	for i, s := range steps {
		switch s.ev {
		case "fail":
			if got := h.Fail(0); got != s.want {
				t.Fatalf("step %d: Fail returned %v, want %v", i, got, s.want)
			}
		case "corrupt":
			if got := h.Corrupt(0); got != s.want {
				t.Fatalf("step %d: Corrupt returned %v, want %v", i, got, s.want)
			}
		case "ok":
			h.OK(0)
		case "verified":
			h.Verified(0)
		case "reset":
			h.Reset(0)
		default:
			d, err := time.ParseDuration(s.ev)
			if err != nil {
				t.Fatalf("step %d: bad event %q", i, s.ev)
			}
			clk.advance(d)
		}
		if got := h.State(0); got != s.want {
			t.Fatalf("step %d (%s): state %v, want %v", i, s.ev, got, s.want)
		}
		if got := h.Allow(0); got != s.allow {
			t.Fatalf("step %d (%s): Allow %v, want %v", i, s.ev, got, s.allow)
		}
	}
	if got := h.State(1); got != Healthy {
		t.Fatalf("untouched node 1 is %v", got)
	}
}

func TestHealthFSM(t *testing.T) {
	base := HealthPolicy{SuspectAfter: 2, FailAfter: 4, ProbationOK: 3}
	probing := base
	probing.ProbeAfter = 100 * time.Millisecond

	for _, tc := range []struct {
		name   string
		policy HealthPolicy
		steps  []step
	}{
		{"thresholds", base, []step{
			{"fail", Healthy, true},
			{"fail", Suspect, true},
			{"fail", Suspect, true},
			{"fail", Failed, false},
		}},
		{"an ok breaks the failure streak", base, []step{
			{"fail", Healthy, true},
			{"ok", Healthy, true},
			{"fail", Healthy, true},
			{"fail", Suspect, true},
		}},
		{"probation walks back, a failure restarts it", base, []step{
			{"fail", Healthy, true},
			{"fail", Suspect, true},
			{"ok", Suspect, true},
			{"ok", Suspect, true},
			{"fail", Suspect, true}, // probation credit gone, streak at 1
			{"ok", Suspect, true},
			{"ok", Suspect, true},
			{"ok", Healthy, true},
		}},
		{"FailAfter below SuspectAfter is raised to it", HealthPolicy{SuspectAfter: 3, FailAfter: 1, ProbationOK: 1}.WithDefaults(HealthPolicy{}), []step{
			{"fail", Healthy, true},
			{"fail", Healthy, true},
			{"fail", Failed, false},
		}},
		{"corruption streak survives ok, only verified clears it", base, []step{
			{"corrupt", Healthy, true},
			{"ok", Healthy, true},
			{"corrupt", Suspect, true}, // streak 2 despite the ok in between
			{"ok", Suspect, true},
			{"corrupt", Suspect, true},
			{"verified", Suspect, true}, // streak cleared; state is worked off by probation
			{"corrupt", Suspect, true},  // streak 1 again, not 4
			{"ok", Suspect, true},
			{"ok", Suspect, true},
			{"ok", Healthy, true},
		}},
		{"corruption alone fails a node out", base, []step{
			{"corrupt", Healthy, true},
			{"corrupt", Suspect, true},
			{"corrupt", Suspect, true},
			{"corrupt", Failed, false},
		}},
		{"failed stays failed without ProbeAfter", base, []step{
			{"fail", Healthy, true},
			{"fail", Suspect, true},
			{"fail", Suspect, true},
			{"fail", Failed, false},
			{"+1h", Failed, false},
			{"ok", Failed, false}, // a repair write landing: not a probe
			{"reset", Healthy, true},
			{"fail", Healthy, true}, // streaks were cleared too
			{"corrupt", Healthy, true},
		}},
		{"probe-through", probing, []step{
			{"fail", Healthy, true},
			{"fail", Suspect, true},
			{"fail", Suspect, true},
			{"fail", Failed, false},
			{"+99ms", Failed, false},
			{"+1ms", Failed, true},   // the probe slot, taken by this Allow
			{"+50ms", Failed, false}, // window re-armed from the probe
			{"fail", Failed, false},  // probe failed: re-armed from now
			{"+99ms", Failed, false},
			{"+1ms", Failed, true},
			{"ok", Suspect, true}, // probe succeeded: probation, credit 1
			{"ok", Suspect, true},
			{"ok", Healthy, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runSteps(t, tc.policy, tc.steps) })
	}
}

// TestHealthProbeSlotIsExclusive: however many callers race for a due
// probe, exactly one gets through per ProbeAfter window.
func TestHealthProbeSlotIsExclusive(t *testing.T) {
	h, clk := newTestHealth(HealthPolicy{SuspectAfter: 1, FailAfter: 1, ProbationOK: 1, ProbeAfter: time.Second})
	if h.Fail(7) != Failed {
		t.Fatal("node not failed")
	}
	for window := 0; window < 3; window++ {
		clk.advance(time.Second)
		var wg sync.WaitGroup
		var mu sync.Mutex
		allowed := 0
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if h.Allow(7) {
					mu.Lock()
					allowed++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if allowed != 1 {
			t.Fatalf("window %d: %d callers allowed through, want 1", window, allowed)
		}
	}
}

func TestHealthPolicyDefaults(t *testing.T) {
	def := HealthPolicy{SuspectAfter: 3, FailAfter: 10, ProbationOK: 5, ProbeAfter: time.Second}
	if got := (HealthPolicy{}).WithDefaults(def); got != def {
		t.Fatalf("zero policy: %+v, want %+v", got, def)
	}
	set := HealthPolicy{SuspectAfter: 1, FailAfter: 2, ProbationOK: 3, ProbeAfter: time.Minute}
	if got := set.WithDefaults(def); got != set {
		t.Fatalf("set policy changed: %+v", got)
	}
}
