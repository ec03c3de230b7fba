package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"past/internal/cachengine"
	"past/internal/daemon"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/topology"
	"past/internal/transport"
)

// The fleet runs in the benchmark's own process. Each node is what
// pastd (internal/daemon.Run) assembles — its own TCP transport on a
// loopback port, a log store with fsync on every write, the cache
// engine — with pastd's defaults, and the nodes and the generator talk
// over real TCP connections. They do not run as separate processes
// because on the shared 2-vCPU VM the benchmark was sized on, a
// loopback round trip between two processes spread three times as much
// from one second to the next as one within a process (IQR/median 0.12
// against 0.04, measured interleaved over one minute), and a fleet of
// processes spread past any usable bound from run to run.
const (
	// pastd's keep-alive default; anti-entropy maintenance stays off
	// (pastd's -maintain 0): each pass sends k-1 acquire RPCs per
	// stored primary, which would measure store size, not lookups.
	keepalive = 5 * time.Second
	// pastd's -retries as cluster.Start sets it.
	clientRetries = 3
)

// fleetNode is one PAST node of an in-process fleet.
type fleetNode struct {
	node  *past.Node
	tr    *transport.TCP
	store *logstore.Store
	dir   string
}

// fleet is one booted in-process fleet.
type fleet struct {
	nodes []*fleetNode
	dir   string
	stop  chan struct{}
	wg    sync.WaitGroup
}

func (f *fleet) addr(i int) string { return f.nodes[i].tr.Addr() }

// startFleet boots fleetNodes nodes under dir: the first bootstraps the
// overlay and each other joins through it, as pastd -join does.
func startFleet(seed int64, dir string) (*fleet, error) {
	f := &fleet{dir: dir, stop: make(chan struct{})}
	for i := 0; i < fleetNodes; i++ {
		n, err := startNode(seed, i, filepath.Join(dir, fmt.Sprintf("node%02d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		if i == 0 {
			n.node.Overlay().Bootstrap()
		} else if err := join(n, f.addr(0)); err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			t := time.NewTicker(keepalive)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					n.node.Overlay().CheckLeafSet()
				case <-f.stop:
					return
				}
			}
		}()
	}
	return f, nil
}

// startNode assembles node i the way pastd does with -k 3 -store log
// -sync always -cache-ram cacheRAM, placing it on the proximity plane
// where cluster.Start places its daemons.
func startNode(seed int64, i int, dir string) (*fleetNode, error) {
	nid := daemon.NodeIDFromSeed(seed*1_000_003 + int64(i) + 1)
	tr, err := transport.New(nid, "127.0.0.1:0", topology.Point{X: float64(10 + 20*i), Y: 10})
	if err != nil {
		return nil, err
	}
	cfg := past.DefaultConfig()
	cfg.K = fleetK
	cfg.Pastry.HopTimeout = 2 * time.Second
	cfg.Retry = &past.RetryPolicy{
		MaxAttempts: clientRetries,
		BaseDelay:   50 * time.Millisecond,
		Timeout:     5 * time.Second,
		JitterSeed:  seed + int64(i),
	}
	cfg.CacheEngine = &cachengine.Config{Shards: 8, RAMBytes: cacheRAM}
	st, err := logstore.Open(dir, logstore.Options{
		Capacity:        nodeCapacity,
		Sync:            logstore.SyncAlways,
		SegmentTarget:   64 << 20,
		CheckpointBytes: 4 << 20,
		CompactRatio:    0.5,
		CompactEvery:    time.Minute,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	node, err := past.NewWithStoreEngine(nid, tr, cfg, st, int64(nid[0])<<8|int64(nid[1]))
	if err != nil {
		st.Close()
		tr.Close()
		return nil, err
	}
	tr.Serve(node)
	return &fleetNode{node: node, tr: tr, store: st, dir: dir}, nil
}

func join(n *fleetNode, addr string) error {
	boot, err := n.tr.Bootstrap(addr)
	if err != nil {
		return err
	}
	return n.node.Overlay().Join(boot)
}

// close stops every node without a graceful leave (the data is
// discarded, so offloading replicas would only spend time) and removes
// the fleet's directory.
func (f *fleet) close() {
	close(f.stop)
	f.wg.Wait()
	for _, n := range f.nodes {
		for _, c := range []io.Closer{n.tr, n.node.Cache(), n.store} {
			if err := c.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: close: %v\n", err)
			}
		}
	}
	os.RemoveAll(f.dir)
}

// counters returns every node's registry, read over the node's client
// RPC as cluster.ObsReport reads it.
func (f *fleet) counters(cli *transport.TCP) ([]map[string]int64, error) {
	var cs []map[string]int64
	for i := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		reply, err := cli.InvokeAddrContext(ctx, f.addr(i), &past.ClientObsReport{})
		cancel()
		if err != nil {
			return nil, fmt.Errorf("obs report node %d: %w", i, err)
		}
		rep, ok := reply.(*past.ClientObsReportReply)
		if !ok {
			return nil, fmt.Errorf("obs report node %d: unexpected reply %T", i, reply)
		}
		cs = append(cs, rep.Snapshot.Counters)
	}
	return cs, nil
}

// dataBytes is the size of every node's data directory.
func (f *fleet) dataBytes() (int64, error) {
	var total int64
	for _, n := range f.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// traceLookup sends a hop-recorded lookup for file through node i, as
// cluster.TraceVia does.
func (f *fleet) traceLookup(cli *transport.TCP, i int, file id.File) (any, error) {
	tc := obs.TraceContext{ID: obs.NewTraceID(), Sampled: true, Budget: obs.DefaultTraceBudget}
	ctx, cancel := context.WithTimeout(obs.ContextWithTrace(context.Background(), tc), opTimeout)
	defer cancel()
	return cli.InvokeAddrContext(ctx, f.addr(i), &past.ClientLookup{File: file})
}
