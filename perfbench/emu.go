package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"past/internal/cache"
	"past/internal/experiments"
	"past/internal/pastry"
)

const (
	emuNodes = 60
	// emuSetups is how many times a run times the emulator's set-up.
	emuSetups = 15
)

// emuConfig is one Figure 8 GD-S replay. Capacities are Table 1's d1
// at a quarter scale, so the derived file population (and the replay)
// is a quarter of the 60-node bench scale: it still drives the cluster
// to high utilization, in about a second instead of six, so a run
// averages over several seeds.
func emuConfig(seed int64) experiments.CachingConfig {
	d := experiments.D1
	d.Name = "d1/4"
	d.M, d.Sigma, d.Lo, d.Hi = d.M/4, d.Sigma/4, d.Lo/4, d.Hi/4
	return experiments.CachingConfig{
		Nodes: emuNodes, Clients: 96, Sites: 8,
		Policy: cache.GDS, Dist: d, Seed: seed,
	}
}

// emuSummary is a replay's deterministic outcome: a same-seed replay
// must reproduce it exactly.
type emuSummary struct {
	HitRate, MeanHops, FinalUtil, InsertFail float64
}

// emuStats accumulates the replays of one window.
type emuStats struct {
	replays                int
	requests               int64
	wall                   time.Duration
	perReplay              []sliceStat // each replay is one slice of the window
	lookups, hops, routed  int64
	cacheHits              int64
	inserts, insertOK      int64
	diversions, retries    int64
	storedBytes, userBytes int64
	finalUtil              []float64
	attempted, failed      int64
	firstErr               error
}

type emuRun struct {
	seed  int64
	out   io.Writer
	first map[int64]emuSummary // first summary seen per replay seed
	// unbuildable holds replay seeds whose emulated cluster could not
	// be built; joinFailures counts them (see isJoinDefect).
	unbuildable  map[int64]bool
	joinFailures int
}

// isJoinDefect reports RunCaching failing to build its emulated
// cluster because a join route looped until the hop limit. Pastry has
// this defect for about one seed in a hundred (14 of seeds 0-1499 at 60
// nodes, each time when the 18th node joins). Like a failed fleet
// boot, it is a set-up failure: the
// replay moves on to the next seed and the failure is counted in
// pastry.join_failures and printed, so it stays visible until fixed.
// Any other error, and any error during the replay itself, fails the
// run.
func isJoinDefect(err error) bool {
	return errors.Is(err, pastry.ErrHopLimit) && strings.HasPrefix(err.Error(), "experiments: caching cluster:")
}

// build runs RunCaching for seed, reporting a join defect as ok=false
// with no error.
func (e *emuRun) build(cfg experiments.CachingConfig) (res *experiments.CachingResult, ok bool, err error) {
	if e.unbuildable[cfg.Seed] {
		return nil, false, nil
	}
	res, err = experiments.RunCaching(cfg)
	if err != nil && isJoinDefect(err) {
		e.unbuildable[cfg.Seed] = true
		e.joinFailures++
		fmt.Fprintf(e.out, "# known defect: seed %d: %v\n", cfg.Seed, err)
		return nil, false, nil
	}
	return res, err == nil, err
}

// subSeed is the seed of the run's i-th replay.
func (e *emuRun) subSeed(i int) int64 { return e.seed*1000 + int64(i) }

// replay runs one replay and checks it against an earlier replay of
// the same seed.
func (e *emuRun) replay(i int, st *emuStats, spans *spanLog) {
	seed := e.subSeed(i)
	cpu0, cerr0 := cpuMicros(os.Getpid())
	start := time.Now()
	res, ok, err := e.build(emuConfig(seed))
	end := time.Now()
	cpu1, cerr1 := cpuMicros(os.Getpid())
	if err == nil && (cerr0 != nil || cerr1 != nil) {
		err = errors.Join(cerr0, cerr1)
	}
	if err == nil && !ok {
		return
	}
	st.attempted++
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		return
	}
	spans.add(0, uint64(seed), "replay", start, end)
	col := res.Collector
	var sum emuSummary
	var ins, insOK int64
	for _, s := range col.Inserts {
		ins++
		st.diversions += int64(s.DivertedReplicas + s.Attempts - 1)
		if s.OK {
			insOK++
			st.userBytes += s.Size
		}
	}
	for _, s := range col.Lookups {
		st.lookups++
		st.hops += int64(s.Hops)
		if s.Hops > 0 {
			st.routed++
		}
		if s.FromCache {
			st.cacheHits++
		}
	}
	sum.HitRate, sum.MeanHops, sum.FinalUtil = res.HitRate, res.MeanHops, res.FinalUtil
	if ins > 0 {
		sum.InsertFail = float64(ins-insOK) / float64(ins)
	}
	if prev, seen := e.first[seed]; !seen {
		e.first[seed] = sum
	} else if prev != sum {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("replay seed %d not reproducible: %+v then %+v", seed, prev, sum)
		}
	}
	d := end.Sub(start)
	st.replays++
	st.requests += int64(res.Config.Requests)
	st.wall += d
	reqs := float64(res.Config.Requests)
	perReq := float64(d.Nanoseconds()) / 1e3 / reqs
	st.perReplay = append(st.perReplay, sliceStat{
		opsPerS:  reqs / d.Seconds(),
		p50:      perReq,
		p99:      perReq,
		cpuPerOp: float64(counterDelta(cpu0, cpu1)) / reqs,
	})
	st.inserts += ins
	st.insertOK += insOK
	st.retries += col.Retries()
	st.storedBytes += col.StoredBytes()
	st.finalUtil = append(st.finalUtil, res.FinalUtil)
}

// window replays seeds subSeed(0), subSeed(1), ... until d has passed.
func (e *emuRun) window(d time.Duration, spans *spanLog) *emuStats {
	st := &emuStats{}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		e.replay(i, st, spans)
		if st.firstErr != nil {
			break
		}
	}
	return st
}

// runEmu runs emu-fig8: the emulator in this process, no TCP, gob or
// logstore.
func runEmu(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	e := &emuRun{seed: o.seed, out: o.out, first: map[int64]emuSummary{}, unbuildable: map[int64]bool{}}

	// Set-up is RunCaching's own: trace generation and the 60-node
	// cluster build. A one-request replay performs exactly that plus a
	// single insert, so it times set-up through the public entry point.
	// A build that fails with the join defect is retried on the next
	// seed, its time counted in the set-up that follows.
	var setupS []float64
	start := time.Now()
	for i := 0; len(setupS) < emuSetups; i++ {
		cfg := emuConfig(e.subSeed(i))
		cfg.Requests = 1
		_, ok, err := e.build(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if ok {
			setupS = append(setupS, time.Since(start).Seconds())
			start = time.Now()
		}
	}
	m["setup_s"] = median(setupS)
	fmt.Fprintf(o.out, "# set-up: %d one-request replays of a %d-node cluster, times %s\n", emuSetups, emuNodes, fmtList(setupS))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st := e.window(o.window, nil)
	runtime.ReadMemStats(&ms1)
	out.attempted += st.attempted
	out.failed += st.failed
	out.note(st.firstErr)
	if st.replays == 0 {
		return out, nil
	}
	// The determinism check: replay the window's first seed again,
	// untimed.
	chk := &emuStats{}
	for i := 0; chk.attempted == 0; i++ {
		e.replay(i, chk, nil)
	}
	out.attempted += chk.attempted
	out.failed += chk.failed
	out.note(chk.firstErr)

	// Each replay is one slice of the window, and the time metrics are
	// taken over the fastest ones as for lookup-cold. A replay's
	// requests are not timed one by one (RunCaching runs them inside
	// one call), so its latency sample is its wall time per request:
	// lat_p50_us is the median replay's, lat_p99_us the 99th
	// percentile over the replays.
	req := st.requests
	untracedOps := float64(req) / st.wall.Seconds()
	printSlices(o.out, st.perReplay)
	fast := fastSlices(st.perReplay)
	fmt.Fprintf(o.out, "# time metrics are over the fastest %d of %d replays\n", len(fast), len(st.perReplay))
	m["ops_per_s"] = medianOf(fast, func(s sliceStat) float64 { return s.opsPerS })
	perReq := sliceValues(fast, func(s sliceStat) float64 { return s.p50 })
	sort.Float64s(perReq)
	m["lat_p50_us"] = percentile(perReq, 0.50)
	m["lat_p99_us"] = percentile(perReq, 0.99)
	out.samples = len(perReq)
	m["cpu_us_per_op"] = medianOf(fast, func(s sliceStat) float64 { return s.cpuPerOp })
	// The emulator runs in this process: the generator is the system.
	m["client.cpu_us_per_op"] = m["cpu_us_per_op"]
	kb, err := statusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = float64(kb) * 1024 / 1e6
	m["disk_bytes_per_user_byte"] = float64(st.storedBytes) / float64(st.userBytes)

	m["pastry.hops_per_lookup"] = perOp(float64(st.hops), st.lookups)
	m["pastry.routed_share"] = perOp(float64(st.routed), st.lookups)
	m["cachengine.hit_ratio"] = perOp(float64(st.cacheHits), st.lookups)
	m["past.diversions_per_insert"] = perOp(float64(st.diversions), st.inserts)
	m["past.retries_per_op"] = perOp(float64(st.retries), req)
	m["store.util_end"] = median(st.finalUtil)
	m["memstats.allocs_per_op"] = perOp(float64(ms1.Mallocs-ms0.Mallocs), req)
	m["memstats.alloc_bytes_per_op"] = perOp(float64(ms1.TotalAlloc-ms0.TotalAlloc), req)
	m["memstats.gc_cycles_per_kop"] = perOp(1000*float64(ms1.NumGC-ms0.NumGC), req)
	// The emulator has no TCP transport, no log store and no process
	// fleet; its cache evictions and stored-replica counts stay inside
	// RunCaching. These read zero here by construction.
	for _, k := range []string{
		"transport.rpcs_per_op", "transport.rpc_us_per_op", "transport.rpc_errors_per_op",
		"cachengine.evictions_per_op", "logstore.fsyncs_per_insert", "logstore.replicas_per_fsync",
		"logstore.wal_bytes_per_user_byte", "past.replicas_per_insert", "pastry.hop_rpc_us_p50",
	} {
		m[k] = 0
	}
	m["pastry.join_failures"] = float64(e.joinFailures)
	fmt.Fprintf(o.out, "# replays: %d (%d trace requests, %d lookups, %d inserts, insert failure ratio %.4f); same-seed re-run reproduced: %v\n",
		st.replays, req, st.lookups, st.inserts, perOp(float64(st.inserts-st.insertOK), st.inserts), chk.failed == 0)

	if o.trace {
		if err := e.tracedWindow(o, out, untracedOps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedWindow repeats the window under runtime/pprof: a CPU profile
// and an alloc-profile delta of this process, charged to layers, plus a
// span per replay.
func (e *emuRun) tracedWindow(o options, out *outcome, untracedOps float64) error {
	m := out.metrics
	allocs0, err := selfAllocs()
	if err != nil {
		return err
	}
	self0, err := cpuMicros(os.Getpid())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	logs := []*spanLog{newSpanLog(1)}
	st := e.window(o.window, logs[0])
	pprof.StopCPUProfile()
	self1, err := cpuMicros(os.Getpid())
	if err != nil {
		return err
	}
	allocs1, err := selfAllocs()
	if err != nil {
		return err
	}
	out.attempted += st.attempted
	out.failed += st.failed
	out.note(st.firstErr)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	cpuByLayer := p.byLayer(p.valueIndex("cpu"))
	req := st.requests
	var attributed float64
	for _, l := range profLayers {
		v := perOp(float64(cpuByLayer[l])/1e3, req)
		m[l+".cpu_us_per_op"] = v
		attributed += v
		m[l+".allocs_per_op"] = perOp(float64(counterDelta(allocs0[l], allocs1[l])), req)
	}
	traced := perOp(float64(counterDelta(self0, self1)), req)
	m["traced.cpu_us_per_op"] = traced
	m["unattributed.cpu_us_per_op"] = traced - attributed
	tracedOps := float64(req) / st.wall.Seconds()
	m["trace.ops_ratio"] = tracedOps / untracedOps
	fmt.Fprintf(o.out, "# traced window: %d replays, %.1f requests/s traced vs %.1f untraced\n", st.replays, tracedOps, untracedOps)
	return writeSpanFile(o, logs)
}

// selfAllocs returns this process's cumulative allocation counts per
// layer, from a fresh alloc profile.
func selfAllocs() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.byLayer(p.valueIndex("alloc_objects")), nil
}
