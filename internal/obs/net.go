package obs

import (
	"context"
	"time"

	"past/internal/id"
	"past/internal/netsim"
)

// InstrumentedNet wraps a netsim.Net and accounts every outgoing
// invoke — message and byte counts, RPC wall-clock latency, failures —
// into a NodeStats registry. It changes no behavior: same calls, same
// errors, no RNG, so it can wrap the fault-injected chaos view without
// perturbing a seeded run.
type InstrumentedNet struct {
	inner netsim.Net
	stats *NodeStats
}

var _ netsim.Net = (*InstrumentedNet)(nil)

// InstrumentNet wraps inner so every outgoing invoke is accounted into
// stats. A nil stats returns inner unchanged.
func InstrumentNet(inner netsim.Net, stats *NodeStats) netsim.Net {
	if stats == nil {
		return inner
	}
	return &InstrumentedNet{inner: inner, stats: stats}
}

// Invoke delivers through the wrapped network, timing the exchange.
func (n *InstrumentedNet) Invoke(ctx context.Context, src, dst id.Node, msg any) (any, error) {
	n.stats.MsgsOut.Add(1)
	if s, ok := msg.(netsim.Sized); ok {
		n.stats.BytesOut.Add(int64(s.WireSize()))
	}
	start := time.Now()
	reply, err := n.inner.Invoke(ctx, src, dst, msg)
	n.stats.ObserveRPC(time.Since(start))
	if err != nil {
		n.stats.RPCErrors.Add(1)
	} else if s, ok := reply.(netsim.Sized); ok {
		n.stats.BytesIn.Add(int64(s.WireSize()))
	}
	return reply, err
}

// Alive passes through.
func (n *InstrumentedNet) Alive(dst id.Node) bool { return n.inner.Alive(dst) }

// Proximity passes through.
func (n *InstrumentedNet) Proximity(a, b id.Node) (float64, bool) {
	return n.inner.Proximity(a, b)
}
