package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/topology"
	"past/internal/trace"
	"past/internal/transport"
	"past/internal/wire"
)

const (
	fleetNodes = 5
	fleetK     = 3
	// clients is the closed loop's width: one client per core of the
	// two-core machine the benchmark was sized on. Each client sends its
	// next request only after the previous reply arrives.
	clients = 2
	// traceEvery is the share of lookups (1 in traceEvery) the traced
	// run sends as hop-recorded lookups.
	traceEvery = 8
	// sliceWidth is the length of the equal slices a timed window is
	// cut into; the time metrics come from the fastest of them (see
	// fastSlices).
	sliceWidth = time.Second
	opTimeout  = 10 * time.Second

	// The population lookup-cold loads: popObjects NLANR-sized files of
	// at most popMaxSize, about 8MB in all, some 30 times each node's
	// RAM cache cap.
	popObjects   = 2000
	popMaxSize   = 16 << 10
	nodeCapacity = 64 << 20
	cacheRAM     = 256 << 10
	// setups is how many set-ups a run times; setup_s is their median.
	setups = 3
	warmup = time.Second
)

// liveRun is one run of lookup-cold against one fleet at a time.
type liveRun struct {
	seed   int64
	work   string
	fleets int // fleets booted so far (names their directories)

	f   *fleet
	cli *transport.TCP // the generator's own client transport
	rr  atomic.Uint64  // round-robin access-point cursor

	pop      []id.File // loaded population
	popBytes int64
	payloads [][]byte // population content, by index
	diskPerB float64  // fleet data bytes per population byte after loading
	// The fleet's registries before and after the last set-up's
	// population load, the workload's only writes.
	loadBefore, loadAfter []map[string]int64
}

// content returns the seeded payload of object idx: a splitmix64
// stream keyed by the run's seed and the object's index.
func content(seed, idx int64, size int) []byte {
	b := make([]byte, size)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(idx)*0xBF58476D1CE4E5B9
	for i := 0; i < size; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < size; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}

func newLiveRun(seed int64, work string) (*liveRun, error) {
	r := &liveRun{seed: seed, work: work}
	rng := mrand.New(mrand.NewSource(seed))
	dist := trace.NLANRSizes()
	dist.Min, dist.Max, dist.PZero = 1, popMaxSize, 0
	r.pop = make([]id.File, popObjects)
	r.payloads = make([][]byte, popObjects)
	for i := range r.pop {
		size := int(dist.Sample(rng))
		r.payloads[i] = content(seed, int64(i), size)
		r.popBytes += int64(size)
	}
	// The generator's client sends the same ClientInsert and
	// ClientLookup messages as cluster.InsertVia and LookupVia, over its
	// own transport.
	wire.RegisterWire()
	past.RegisterWire()
	var cid id.Node
	if _, err := rand.Read(cid[:]); err != nil {
		return nil, err
	}
	cli, err := transport.New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		return nil, err
	}
	r.cli = cli
	return r, nil
}

// teardown stops the current fleet, if any.
func (r *liveRun) teardown() {
	if r.f != nil {
		r.f.close()
		r.f = nil
	}
}

func (r *liveRun) close() {
	r.teardown()
	r.cli.Close()
}

// setup boots a fleet and loads the population with client inserts,
// round-robin over the access points with the closed loop's clients.
// Reading the registries around the load is not timed.
func (r *liveRun) setup() (time.Duration, error) {
	start := time.Now()
	dir := filepath.Join(r.work, fmt.Sprintf("fleet%d", r.fleets))
	r.fleets++
	f, err := startFleet(r.seed, dir)
	if err != nil {
		return 0, fmt.Errorf("fleet boot: %w", err)
	}
	r.f = f
	boot := time.Since(start)
	if r.loadBefore, err = r.f.counters(r.cli); err != nil {
		return 0, err
	}
	start = time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(r.pop); i += clients {
				name := fmt.Sprintf("pop-%d-%d", r.seed, i)
				f, err := r.insert(i%fleetNodes, name, r.payloads[i])
				if err != nil {
					errs[w] = fmt.Errorf("load %s: %w", name, err)
					return
				}
				r.pop[i] = f
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	elapsed := boot + time.Since(start)
	if r.loadAfter, err = r.f.counters(r.cli); err != nil {
		return 0, err
	}
	disk, err := r.f.dataBytes()
	if err != nil {
		return 0, err
	}
	r.diskPerB = float64(disk) / float64(r.popBytes)
	return elapsed, nil
}

// insert stores content under name through node i.
func (r *liveRun) insert(i int, name string, content []byte) (id.File, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	reply, err := r.cli.InvokeAddrContext(ctx, r.f.addr(i), &past.ClientInsert{Name: name, Content: content})
	if err != nil {
		return id.File{}, err
	}
	ir, ok := reply.(*past.ClientInsertReply)
	if !ok || !ir.OK {
		return id.File{}, fmt.Errorf("insert rejected: %+v", reply)
	}
	return ir.FileID, nil
}

// opStats accumulates one client's view of a window.
type opStats struct {
	lat          []float64 // µs per completed operation
	done         []int64   // completion time (Unix ns) of each lat entry
	ops, failed  int64
	lookups      int64
	hops, routed int64
	cacheHits    int64
	hopRPCus     []float64 // traced runs: per-hop forwarding RPC time
	firstErr     error
	start        time.Time // window start
}

func (s *opStats) merge(o *opStats) {
	s.lat = append(s.lat, o.lat...)
	s.done = append(s.done, o.done...)
	s.ops += o.ops
	s.failed += o.failed
	s.lookups += o.lookups
	s.hops += o.hops
	s.routed += o.routed
	s.cacheHits += o.cacheHits
	s.hopRPCus = append(s.hopRPCus, o.hopRPCus...)
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *opStats) record(start, end time.Time) {
	s.lat = append(s.lat, float64(end.Sub(start).Nanoseconds())/1e3)
	s.done = append(s.done, end.UnixNano())
}

func (s *opStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// client is one closed-loop generator goroutine's state.
type client struct {
	r     *liveRun
	w     int
	rng   *mrand.Rand
	spans *spanLog // nil: untraced
	n     int64
	st    opStats
}

func (r *liveRun) newClient(w int, phase int64, spans *spanLog) *client {
	return &client{r: r, w: w, rng: mrand.New(mrand.NewSource(r.seed*1_000_003 + phase*101 + int64(w))), spans: spans}
}

// reqID names the client's current request in its spans.
func (c *client) reqID() uint64 { return uint64(c.w+1)<<48 | uint64(c.n) }

func (r *liveRun) nextNode() int { return int(r.rr.Add(1) % fleetNodes) }

// one performs the client's next lookup, timing it and checking the
// answer.
func (c *client) one() {
	c.n++
	key := c.rng.Intn(len(c.r.pop))
	c.lookup(key, c.r.nextNode(), c.spans != nil && c.n%traceEvery == 0)
}

func (c *client) lookup(key, node int, traced bool) {
	r := c.r
	f := r.pop[key]
	start := time.Now()
	var lr *past.ClientLookupReply
	var err error
	var reply any
	if traced {
		reply, err = r.f.traceLookup(r.cli, node, f)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		reply, err = r.cli.InvokeAddrContext(ctx, r.f.addr(node), &past.ClientLookup{File: f})
		cancel()
	}
	if err == nil {
		var ok bool
		if lr, ok = reply.(*past.ClientLookupReply); !ok {
			err = fmt.Errorf("unexpected lookup reply %T", reply)
		}
	}
	end := time.Now()
	c.st.ops++
	c.st.lookups++
	if err != nil {
		c.st.fail(fmt.Errorf("lookup %d via node %d: %w", key, node, err))
		return
	}
	if !lr.Found || !bytes.Equal(lr.Content, r.payloads[key]) {
		c.st.fail(fmt.Errorf("lookup %d via node %d: found=%v, %d bytes, content mismatch", key, node, lr.Found, len(lr.Content)))
		return
	}
	c.st.record(start, end)
	c.st.hops += int64(lr.Hops)
	if lr.Hops > 0 {
		c.st.routed++
	}
	if lr.FromCache {
		c.st.cacheHits++
	}
	if c.spans != nil {
		req := lr.TraceID
		if req == 0 {
			req = c.reqID()
		}
		name := "lookup"
		if traced {
			name = "lookup.traced"
		}
		sid := c.spans.add(0, req, name, start, end)
		c.spans.addHops(sid, req, start, lr.Trace)
		for _, h := range lr.Trace {
			if !h.Failed && h.To != h.From && h.RPCNanos > 0 {
				c.st.hopRPCus = append(c.st.hopRPCus, float64(h.RPCNanos)/1e3)
			}
		}
	}
}

// window runs the closed loop for d and returns the merged client
// stats and the window's wall time (to the last reply). With probes
// non-nil it also probes the process at the start and at the end of
// each of len(*probes)-1 equal slices of d.
func (r *liveRun) window(d time.Duration, phase int64, logs []*spanLog, probes *[]probe) (opStats, time.Duration) {
	cs := make([]*client, clients)
	for w := range cs {
		var l *spanLog
		if logs != nil {
			l = logs[w]
		}
		cs[w] = r.newClient(w, phase, l)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if probes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := len(*probes) - 1
			for k := 0; k <= n; k++ {
				time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(n))))
				(*probes)[k] = probeNow()
			}
		}()
	}
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.one()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var st opStats
	for _, c := range cs {
		st.merge(&c.st)
	}
	st.start = start
	return st, elapsed
}

// probe is one reading of this process, the fleet's and the
// generator's together: CPU time in µs and resident set in KiB, each
// -1 when its read failed.
type probe struct{ cpu, rssKB float64 }

func probeNow() probe {
	p := probe{-1, -1}
	if us, err := cpuMicros(os.Getpid()); err == nil {
		p.cpu = float64(us)
	}
	if kb, err := statusKB(os.Getpid(), "VmRSS"); err == nil {
		p.rssKB = float64(kb)
	}
	return p
}

// sliceStat is one equal part of a timed window.
type sliceStat struct {
	opsPerS, p50, p99, cpuPerOp float64
}

// slices splits a window's completed operations by completion time
// into len(probes)-1 slices of d/(len(probes)-1) each, probes being
// read at the slice boundaries; operations finishing after the
// deadline count in the last slice.
func slices(st *opStats, d time.Duration, probes []probe) ([]sliceStat, error) {
	n := len(probes) - 1
	width := d / time.Duration(n)
	lats := make([][]float64, n)
	for i, t := range st.done {
		k := int(time.Duration(t-st.start.UnixNano()) / width)
		if k >= n {
			k = n - 1
		}
		if k < 0 {
			k = 0
		}
		lats[k] = append(lats[k], st.lat[i])
	}
	out := make([]sliceStat, n)
	for k := range out {
		if probes[k].cpu < 0 || probes[k+1].cpu < 0 {
			return nil, fmt.Errorf("cpu accounting read failed at slice %d", k)
		}
		l := lats[k]
		sort.Float64s(l)
		out[k] = sliceStat{
			opsPerS:  float64(len(l)) / width.Seconds(),
			p50:      percentile(l, 0.50),
			p99:      percentile(l, 0.99),
			cpuPerOp: perOp(probes[k+1].cpu-probes[k].cpu, int64(len(l))),
		}
	}
	return out, nil
}

// fastShare is the share of a window's slices the time metrics are
// taken over.
const fastShare = 0.5

// fastSlices returns the fastest fastShare of the slices (at least
// one): those in which the most operations completed. The benchmark
// was sized on a shared 2-vCPU VM whose speed swings by up to a third
// from one second to the next while the hypervisor reports no steal,
// so the slowest slices measure the machine's other tenants rather
// than the program.
func fastSlices(ss []sliceStat) []sliceStat {
	sorted := append([]sliceStat(nil), ss...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].opsPerS > sorted[j].opsPerS })
	keep := int(float64(len(sorted))*fastShare + 0.5)
	if keep < 1 {
		keep = 1
	}
	return sorted[:keep]
}

// printSlices prints one line per slice.
func printSlices(w io.Writer, ss []sliceStat) {
	for k, s := range ss {
		fmt.Fprintf(w, "# slice %2d ops/s %9.1f p50 %9.1f p99 %9.1f cpu/op %8.2f\n", k, s.opsPerS, s.p50, s.p99, s.cpuPerOp)
	}
}

func sliceValues(ss []sliceStat, f func(sliceStat) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func medianOf(ss []sliceStat, f func(sliceStat) float64) float64 {
	return median(sliceValues(ss, f))
}

// warmup fills caches and pools before timing by running the
// workload briefly.
func (r *liveRun) warmup() opStats {
	st, _ := r.window(warmup, 1, nil, nil)
	return st
}

// fleetSnap is the fleet at one instant: every node's registry, the
// process's MemStats and its CPU time in µs.
type fleetSnap struct {
	counters []map[string]int64
	mem      runtime.MemStats
	cpu      int64
}

func (r *liveRun) snapshot() (fleetSnap, error) {
	var s fleetSnap
	var err error
	if s.counters, err = r.f.counters(r.cli); err != nil {
		return s, err
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu, err = cpuMicros(os.Getpid())
	return s, err
}

// sumDelta is the fleet-wide growth of one named counter.
func sumDelta(before, after []map[string]int64, name string) float64 {
	var t int64
	for i := range after {
		t += counterDelta(before[i][name], after[i][name])
	}
	return float64(t)
}

// runLive runs lookup-cold and returns its metrics.
func runLive(o options) (*outcome, error) {
	r, err := newLiveRun(o.seed, o.work)
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &outcome{metrics: map[string]float64{}}

	n := setups
	if o.trace {
		n = 1 // set-up time is an untraced-run metric
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			r.teardown()
		}
		d, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	fmt.Fprintf(o.out, "# set-up: %d in-process fleet(s) of %d nodes, %d objects (%d bytes) loaded, times %s\n",
		n, fleetNodes, len(r.pop), r.popBytes, fmtList(setupS))

	wu := r.warmup()
	out.add(&wu)

	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	probes := make([]probe, int(o.window/sliceWidth)+1)
	st, elapsed := r.window(o.window, 2, nil, &probes)
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	out.add(&st)
	untracedOps := float64(st.ops) / elapsed.Seconds()
	ss, err := slices(&st, o.window, probes)
	if err != nil {
		return nil, err
	}

	printSlices(o.out, ss)
	all := len(ss)
	ss = fastSlices(ss)
	fmt.Fprintf(o.out, "# window: %d ops in %.2fs; time metrics are medians over the fastest %d of %d slices\n",
		st.ops, elapsed.Seconds(), len(ss), all)
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["ops_per_s"] = medianOf(ss, func(s sliceStat) float64 { return s.opsPerS })
	m["lat_p50_us"] = medianOf(ss, func(s sliceStat) float64 { return s.p50 })
	m["lat_p99_us"] = medianOf(ss, func(s sliceStat) float64 { return s.p99 })
	m["cpu_us_per_op"] = medianOf(ss, func(s sliceStat) float64 { return s.cpuPerOp })
	out.samples = len(st.lat)
	// The process's own high-water mark would also hold the set-ups'
	// garbage, so the peak is taken over the window's probes.
	var peakKB float64
	for _, p := range probes {
		if p.rssKB < 0 {
			return nil, fmt.Errorf("resident set read failed")
		}
		peakKB = max(peakKB, p.rssKB)
	}
	m["peak_rss_mb"] = peakKB * 1024 / 1e6

	// Per-layer counts from the nodes' registries and the replies.
	ops := st.ops
	d := func(name string) float64 { return sumDelta(before.counters, after.counters, name) }
	m["transport.rpcs_per_op"] = perOp(d(obs.CtrMsgsOut), ops)
	m["transport.rpc_us_per_op"] = perOp(d(obs.CtrRPCTimeNanos)/1e3, ops)
	m["transport.rpc_errors_per_op"] = perOp(d(obs.CtrRPCErrors), ops)
	m["pastry.hops_per_lookup"] = perOp(float64(st.hops), st.lookups)
	m["pastry.routed_share"] = perOp(float64(st.routed), st.lookups)
	m["cachengine.hit_ratio"] = perOp(float64(st.cacheHits), st.lookups)
	m["cachengine.evictions_per_op"] = perOp(d(obs.CtrCacheEvictions), ops)
	// The write path is measured over the last set-up's population
	// load, the workload's only writes.
	ld := func(name string) float64 { return sumDelta(r.loadBefore, r.loadAfter, name) }
	loaded := int64(len(r.pop))
	m["logstore.fsyncs_per_insert"] = perOp(ld(obs.CtrFsyncs), loaded)
	m["logstore.replicas_per_fsync"] = perOp(ld(obs.CtrReplicasStored), int64(ld(obs.CtrFsyncs)))
	m["logstore.wal_bytes_per_user_byte"] = perOp(ld(obs.CtrWALBytes), r.popBytes)
	m["past.replicas_per_insert"] = perOp(ld(obs.CtrReplicasStored), loaded)
	m["past.diversions_per_insert"] = perOp(ld(obs.CtrDivertedIn)+ld(obs.CtrFileDiversions), loaded)
	m["past.retries_per_op"] = perOp(d(obs.CtrRetries), ops)
	var used, capTotal int64
	for _, c := range after.counters {
		used += c[obs.CtrStoreBytes]
		capTotal += c[obs.CtrStoreCapacity]
	}
	m["store.util_end"] = float64(used) / float64(capTotal)
	m["memstats.allocs_per_op"] = perOp(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["memstats.alloc_bytes_per_op"] = perOp(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	m["memstats.gc_cycles_per_kop"] = perOp(1000*float64(after.mem.NumGC-before.mem.NumGC), ops)
	// A join that fails during boot fails the run.
	m["pastry.join_failures"] = 0

	if o.trace {
		if err := r.tracedWindow(o, out, untracedOps); err != nil {
			return nil, err
		}
	}
	m["disk_bytes_per_user_byte"] = r.diskPerB
	return out, nil
}

// tracedWindow repeats the timed window with the traced run's
// instruments on: a CPU profile and an alloc-profile delta of the
// process (the generator's own code is the client layer), spans around
// every client call, and every traceEvery-th lookup sent as a
// hop-recorded lookup whose route records become child spans.
func (r *liveRun) tracedWindow(o options, out *outcome, untracedOps float64) error {
	m := out.metrics
	allocs0, err := selfAllocs()
	if err != nil {
		return err
	}
	cpu0, err := cpuMicros(os.Getpid())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	logs := make([]*spanLog, clients)
	for w := range logs {
		logs[w] = newSpanLog(w + 1)
	}
	st, elapsed := r.window(o.window, 3, logs, nil)
	pprof.StopCPUProfile()
	cpu1, err := cpuMicros(os.Getpid())
	if err != nil {
		return err
	}
	allocs1, err := selfAllocs()
	if err != nil {
		return err
	}
	out.add(&st)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	cpuByLayer := p.byLayer(p.valueIndex("cpu"))
	ops := st.ops
	var attributed float64
	for _, l := range profLayers {
		v := perOp(float64(cpuByLayer[l])/1e3, ops)
		m[l+".cpu_us_per_op"] = v
		attributed += v
		m[l+".allocs_per_op"] = perOp(float64(counterDelta(allocs0[l], allocs1[l])), ops)
	}
	traced := perOp(float64(counterDelta(cpu0, cpu1)), ops)
	m["traced.cpu_us_per_op"] = traced
	m["unattributed.cpu_us_per_op"] = traced - attributed
	tracedOps := float64(ops) / elapsed.Seconds()
	m["trace.ops_ratio"] = tracedOps / untracedOps
	sort.Float64s(st.hopRPCus)
	m["pastry.hop_rpc_us_p50"] = percentile(st.hopRPCus, 0.5)
	fmt.Fprintf(o.out, "# traced window: %d ops, %.1f ops/s traced vs %.1f untraced, %d routed hops sampled\n",
		ops, tracedOps, untracedOps, len(st.hopRPCus))
	return writeSpanFile(o, logs)
}
