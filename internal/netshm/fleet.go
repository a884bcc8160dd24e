package netshm

import (
	"fmt"
	"sync/atomic"

	"hemlock/internal/core"
	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
)

// Fleet is a set of simulated machines sharing one LAN, one virtual
// clock, and one obsv registry. It is the deterministic test and bench
// driver: Tick advances the clock by one and steps every machine in a
// fixed order, so a fleet run is a pure function of the workload and the
// network's Drop model.
type Fleet struct {
	Net *netsim.Network
	Reg *obsv.Registry
	Cfg Config

	// Trace is the fleet-wide tracer: every machine emits its protocol
	// events (write, push, apply, and the write→apply flow pairs) here,
	// stamped with the machine's fleet index as the event PID and the
	// virtual clock as the timestamp (1 tick = 1 µs in the Chrome export),
	// so one sink captures a causally-ordered cross-machine timeline.
	Trace *obsv.Tracer

	clk      atomic.Uint64
	order    []string
	nodes    map[string]*Node
	nextSlot int // fleet-coordinated inode slot counter for PublishSharded
}

// NewFleet wires a fleet onto a network. Protocol and network counters
// land in the fleet's registry.
func NewFleet(net *netsim.Network, cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		Net:      net,
		Reg:      obsv.NewRegistry(),
		Cfg:      cfg,
		nodes:    map[string]*Node{},
		nextSlot: 8,
	}
	f.Trace = obsv.NewTracer(func() int64 { return int64(f.clk.Load()) * 1000 })
	net.Observe(f.Reg)
	return f
}

// Add boots one machine into the fleet: attaches it to the LAN and gives
// it a netshm endpoint over the supplied Hemlock system.
func (f *Fleet) Add(name string, sys *core.System) *Node {
	if _, ok := f.nodes[name]; ok {
		panic(fmt.Sprintf("netshm: fleet already has machine %q", name))
	}
	n := &Node{
		name:  name,
		sys:   sys,
		net:   f.Net,
		nd:    f.Net.Attach(name),
		fleet: f,
		cfg:   f.Cfg,
		idx:   len(f.order),
		segs:  map[string]*seg{},
	}
	n.wire(f.Reg)
	f.nodes[name] = n
	f.order = append(f.order, name)
	return n
}

// Node returns a machine by name, or nil.
func (f *Fleet) Node(name string) *Node { return f.nodes[name] }

// Machines returns the machine names in Add order: the track order a
// merged fleet Chrome trace uses (a machine's fleet index is its event
// PID).
func (f *Fleet) Machines() []string {
	return append([]string(nil), f.order...)
}

// Nodes returns the machines in their deterministic step order.
func (f *Fleet) Nodes() []*Node {
	out := make([]*Node, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, f.nodes[name])
	}
	return out
}

// Now reads the virtual clock.
func (f *Fleet) Now() uint64 { return f.clk.Load() }

// Tick advances the virtual clock, ages the network (maturing any
// datagrams held by its DelayTicks knob), and runs one protocol step on
// every machine, in Add order.
func (f *Fleet) Tick() {
	f.clk.Add(1)
	f.Net.Advance()
	for _, name := range f.order {
		f.nodes[name].Step()
	}
}

// Run executes n ticks.
func (f *Fleet) Run(n int) {
	for i := 0; i < n; i++ {
		f.Tick()
	}
}

// Converged reports whether the fleet agrees on the segment: exactly one
// machine claims the home role, no migration is in flight, and every
// machine has applied the home's (epoch, generation, version-clock)
// triple. During a migration two machines may briefly both claim the home
// — that window reports not-converged until the handshake (or its abort
// path) heals it.
func (f *Fleet) Converged(path string) bool {
	var wantE, wantG, wantT uint64
	homes, migrating := 0, false
	for _, n := range f.nodes {
		n.mu.Lock()
		s, ok := n.segs[path]
		if ok && s.isHome {
			homes++
			if s.migrating != "" {
				migrating = true
			}
			if homes == 1 || s.epoch > wantE {
				wantE, wantG, wantT = s.epoch, s.gen, s.tv
			}
		}
		n.mu.Unlock()
	}
	if homes != 1 || migrating {
		return false
	}
	for _, n := range f.nodes {
		n.mu.Lock()
		s, ok := n.segs[path]
		stale := !ok || s.epoch != wantE || s.gen != wantG || s.tv != wantT || s.needFull
		n.mu.Unlock()
		if stale {
			return false
		}
	}
	return true
}

// WaitConverged ticks until the segment converges everywhere or maxTicks
// elapse, returning the ticks spent and whether convergence was reached.
func (f *Fleet) WaitConverged(path string, maxTicks int) (int, bool) {
	for i := 0; i < maxTicks; i++ {
		if f.Converged(path) {
			return i, true
		}
		f.Tick()
	}
	return maxTicks, f.Converged(path)
}

// HomeFor returns the machine a segment path hashes to: the sharded home
// assignment that spreads 1000 segments over 1000 machines instead of
// funnelling every write through one. FNV-1a over the path, mod the fleet
// in Add order — deterministic for a given fleet shape.
func (f *Fleet) HomeFor(path string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime64
	}
	return f.order[h%uint64(len(f.order))]
}

// PublishSharded publishes a segment on its hash-assigned home, at a
// fleet-coordinated inode slot. Slot coordination is what keeps the
// same-VA invariant at fleet scale: two segments published independently
// by different homes must not race for the same address region, so the
// fleet hands out slots from one counter (skipping any slot the home
// already uses). Returns the home node.
func (f *Fleet) PublishSharded(path string, data []byte) (*Node, error) {
	home := f.nodes[f.HomeFor(path)]
	var lastErr error
	for tries := 0; tries < 64; tries++ {
		slot := f.nextSlot
		f.nextSlot++
		if err := home.PublishAt(path, data, slot); err == nil {
			return home, nil
		} else {
			lastErr = err
		}
	}
	return nil, fmt.Errorf("netshm: no free inode slot for %s: %w", path, lastErr)
}
