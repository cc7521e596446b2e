package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/population"
)

// SpawnDriver materializes a population band when a FaultSpawn step
// fires. The harness installs one (SetSpawnDriver) that knows how to
// build the band's peers; the driver should start them and return
// without waiting for them to finish.
type SpawnDriver func(behavior population.Behavior, count int, at time.Duration) error

// Node is one machine the engine can impair. Infrastructure nodes
// (CDN, signal server) register with Infra set (or without a Kill
// hook), which exempts them from KillFraction's seeded selection;
// explicit KillNodes still crashes them.
type Node struct {
	// Name is the roster key referenced by scenario steps.
	Name string
	// Addr is the node's network address (impairment target).
	Addr netip.Addr
	// Host, when set, enables crash and slow faults for the node.
	Host *netsim.Host
	// Kill, when set, stops the node's process (e.g. cancels a viewer's
	// context). The engine crashes the Host first so blocked I/O fails
	// fast, then calls Kill.
	Kill func()
	// Infra exempts the node from KillFraction even though it has a
	// Kill hook — peer-churn steps must never take down the signaling
	// plane or CDN by seed luck; only explicit KillNodes does that.
	Infra bool
}

// Event is one injected fault in the log. The log records the seeded
// schedule unfolding — fault kind, resolved targets, scenario-clock
// offset — and deliberately nothing runtime-dependent, so a run's log
// is byte-identical for the same (scenario, roster, seed).
type Event struct {
	Seq     int      `json:"seq"`
	AtMS    int64    `json:"at_ms"`
	Fault   string   `json:"fault"`
	Targets []string `json:"targets,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// Engine applies scenarios to a registered roster over a network.
type Engine struct {
	net *netsim.Network
	rng *rand.Rand

	mu     sync.Mutex
	nodes  map[string]*Node
	killed map[string]bool
	events []Event
	spawn  SpawnDriver
}

// NewEngine builds an engine whose random decisions (KillFraction
// target selection) derive from seed alone.
func NewEngine(n *netsim.Network, seed int64) *Engine {
	return &Engine{
		net:    n,
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  make(map[string]*Node),
		killed: make(map[string]bool),
	}
}

// Register adds a node to the roster. Registration order does not
// matter — selections work on the name-sorted roster — but the full
// roster must be registered before Run for logs to reproduce.
func (e *Engine) Register(n Node) {
	if n.Name == "" {
		panic("chaos: node needs a name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.nodes[n.Name]; dup {
		panic("chaos: duplicate node " + n.Name)
	}
	node := n
	e.nodes[n.Name] = &node
}

// SetSpawnDriver installs the harness hook FaultSpawn steps call.
func (e *Engine) SetSpawnDriver(fn SpawnDriver) {
	e.mu.Lock()
	e.spawn = fn
	e.mu.Unlock()
}

// Killed returns the names of nodes crashed so far, sorted.
func (e *Engine) Killed() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.killed))
	for name := range e.killed {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Events returns a copy of the event log so far.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// LogBytes returns the JSONL event log as a byte slice.
func (e *Engine) LogBytes() []byte {
	var b []byte
	for _, ev := range e.Events() {
		line, _ := json.Marshal(ev)
		b = append(b, line...)
		b = append(b, '\n')
	}
	return b
}

// Run unfolds the scenario: it sleeps from one step offset to the
// next and applies each fault in order (ties applied in declaration
// order). It returns early if ctx ends or a step is malformed.
func (e *Engine) Run(ctx context.Context, sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	steps := make([]Step, len(sc.Steps))
	copy(steps, sc.Steps)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	elapsed := time.Duration(0)
	for _, st := range steps {
		if wait := st.At - elapsed; wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
		elapsed = st.At
		if err := e.apply(st); err != nil {
			return err
		}
	}
	return nil
}

// lookupLocked resolves a roster name. Caller holds e.mu.
func (e *Engine) lookupLocked(name string) (*Node, error) {
	n, ok := e.nodes[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown node %q", name)
	}
	return n, nil
}

// apply injects one fault and records its event.
func (e *Engine) apply(st Step) error {
	switch st.Fault {
	case FaultKillFraction:
		return e.killFraction(st)
	case FaultKillNodes:
		return e.killNodes(st)
	case FaultPartition, FaultHeal:
		return e.partition(st)
	case FaultSlow:
		return e.slow(st)
	case FaultLinkLoss:
		return e.linkLoss(st)
	case FaultCorrupt, FaultClearCorrupt:
		return e.corrupt(st)
	case FaultSpawn:
		return e.doSpawn(st)
	}
	return fmt.Errorf("chaos: unknown fault %q", st.Fault)
}

// record appends an event; targets must already be sorted.
func (e *Engine) record(st Step, targets []string, detail string) {
	e.mu.Lock()
	e.events = append(e.events, Event{
		Seq:     len(e.events),
		AtMS:    st.At.Milliseconds(),
		Fault:   string(st.Fault),
		Targets: targets,
		Detail:  detail,
	})
	e.mu.Unlock()
}

// doSpawn hands a population band to the harness driver. The event is
// recorded before the driver runs and carries only the schedule's
// parameters, keeping the log a pure function of (scenario, roster,
// seed) even though the spawned peers' lives are runtime-dependent.
func (e *Engine) doSpawn(st Step) error {
	e.mu.Lock()
	fn := e.spawn
	e.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("chaos: spawn step needs a driver (Engine.SetSpawnDriver)")
	}
	e.record(st, nil, fmt.Sprintf("behavior=%s count=%d", st.Behavior, st.Count))
	return fn(population.Behavior(st.Behavior), st.Count, st.At)
}

// killFraction crashes a seeded selection of the killable roster.
func (e *Engine) killFraction(st Step) error {
	e.mu.Lock()
	candidates := make([]string, 0, len(e.nodes))
	for name, n := range e.nodes {
		if n.Kill != nil && !n.Infra && !e.killed[name] {
			candidates = append(candidates, name)
		}
	}
	sort.Strings(candidates)
	// The shuffle consumes the engine RNG in roster-sorted order, so the
	// selection depends only on (roster, prior kills, seed).
	e.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	k := int(math.Round(st.Frac * float64(len(candidates))))
	doomed := candidates[:k]
	sort.Strings(doomed)
	for _, name := range doomed {
		e.killed[name] = true
	}
	victims := make([]*Node, 0, k)
	for _, name := range doomed {
		victims = append(victims, e.nodes[name])
	}
	e.mu.Unlock()

	e.record(st, doomed, fmt.Sprintf("frac=%.2f picked=%d", st.Frac, k))
	for _, n := range victims {
		e.crash(n)
	}
	return nil
}

// killNodes crashes explicitly named nodes.
func (e *Engine) killNodes(st Step) error {
	names := append([]string(nil), st.Nodes...)
	sort.Strings(names)
	e.mu.Lock()
	victims := make([]*Node, 0, len(names))
	for _, name := range names {
		n, err := e.lookupLocked(name)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		if !e.killed[name] {
			e.killed[name] = true
			victims = append(victims, n)
		}
	}
	e.mu.Unlock()

	e.record(st, names, "")
	for _, n := range victims {
		e.crash(n)
	}
	return nil
}

// crash kills one node: the host first (so blocked I/O fails fast),
// then the process hook.
func (e *Engine) crash(n *Node) {
	if n.Host != nil {
		n.Host.Close()
	}
	if n.Kill != nil {
		n.Kill()
	}
}

func (e *Engine) partition(st Step) error {
	names := append([]string(nil), st.Nodes...)
	sort.Strings(names)
	e.mu.Lock()
	addrs := make([]netip.Addr, 0, len(names))
	for _, name := range names {
		n, err := e.lookupLocked(name)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		addrs = append(addrs, n.Addr)
	}
	e.mu.Unlock()

	e.record(st, names, "")
	for _, a := range addrs {
		if st.Fault == FaultPartition {
			e.net.Isolate(a)
		} else {
			e.net.Rejoin(a)
		}
	}
	return nil
}

func (e *Engine) slow(st Step) error {
	names := append([]string(nil), st.Nodes...)
	sort.Strings(names)
	e.mu.Lock()
	hosts := make([]*netsim.Host, 0, len(names))
	for _, name := range names {
		n, err := e.lookupLocked(name)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		if n.Host == nil {
			e.mu.Unlock()
			return fmt.Errorf("chaos: node %q has no host to slow", name)
		}
		hosts = append(hosts, n.Host)
	}
	e.mu.Unlock()

	e.record(st, names, fmt.Sprintf("latency=%v rate=%d", st.Latency, st.RateBps))
	for _, h := range hosts {
		h.SetLatency(st.Latency)
		h.SetRates(st.RateBps, st.RateBps)
	}
	return nil
}

func (e *Engine) linkLoss(st Step) error {
	e.mu.Lock()
	from, err := e.lookupLocked(st.From)
	if err == nil {
		var to *Node
		to, err = e.lookupLocked(st.To)
		if err == nil {
			e.mu.Unlock()
			e.record(st, []string{st.From, st.To}, fmt.Sprintf("p=%.3f", st.Prob))
			e.net.SetLinkLoss(from.Addr, to.Addr, st.Prob)
			return nil
		}
	}
	e.mu.Unlock()
	return err
}

func (e *Engine) corrupt(st Step) error {
	names := append([]string(nil), st.Nodes...)
	sort.Strings(names)
	e.mu.Lock()
	addrs := make([]netip.Addr, 0, len(names))
	for _, name := range names {
		n, err := e.lookupLocked(name)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		addrs = append(addrs, n.Addr)
	}
	e.mu.Unlock()

	if st.Fault == FaultCorrupt {
		e.record(st, names, fmt.Sprintf("p=%.3f truncate=%v", st.Prob, st.Truncate))
		for _, a := range addrs {
			e.net.CorruptStreams(a, st.Prob, st.Truncate)
		}
		return nil
	}
	e.record(st, names, "")
	for _, a := range addrs {
		e.net.ClearCorrupt(a)
	}
	return nil
}
