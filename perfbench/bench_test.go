package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v, want 7", got)
	}
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestLayerOfInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"gob under the codec is wire", []string{
			"encoding/gob.(*Encoder).Encode",
			"past/internal/wire.(*Codec).WriteRequest",
			"past/internal/transport.roundTrip",
			"past/internal/past.(*Node).Lookup",
		}, "wire"},
		{"socket syscall under transport", []string{
			"internal/runtime/syscall.Syscall6",
			"syscall.write",
			"net.(*conn).Write",
			"past/internal/transport.(*TCP).serveConn",
		}, "transport"},
		{"inlined method of a repo type", []string{
			"runtime.mallocgc",
			"past/internal/cachengine.(*Engine).Get",
			"past/internal/past.(*Node).lookupLocal",
		}, "cachengine"},
		{"repo package outside the named layers", []string{
			"sort.Slice",
			"past/internal/experiments.RunCaching",
		}, "other"},
		{"no repo frame", []string{
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "runtime"},
		{"benchmark's own code", []string{
			"runtime.memmove",
			"main.content",
			"main.(*client).insert",
		}, "client"},
		{"prefix must be a whole package", []string{
			"past/internal/pastryx.Route",
		}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

var sink [][]byte

func TestParseProfile(t *testing.T) {
	// Sample every allocation, make some, and let a GC publish them.
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 64))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := p.valueIndex("alloc_objects")
	if idx < 0 {
		t.Fatalf("sample types %v lack alloc_objects", p.types)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples")
	}
	var total int64
	for _, v := range p.byLayer(idx) {
		total += v
	}
	if total <= 0 {
		t.Errorf("alloc_objects total %d, want > 0", total)
	}
	named := false
	for _, s := range p.samples {
		for _, f := range s.frames {
			named = named || f != ""
		}
	}
	if !named {
		t.Error("no sample frame resolved to a function name")
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestCounterDeltaAcrossRestart(t *testing.T) {
	if got := counterDelta(100, 150); got != 50 {
		t.Errorf("steady counter: %d, want 50", got)
	}
	// The daemon restarted: its counter began again from zero and
	// reached 30, all of it inside the window.
	if got := counterDelta(100, 30); got != 30 {
		t.Errorf("restarted counter: %d, want 30", got)
	}
	// Node 0 restarted mid-window; node 1 did not. A counter the new
	// life has not touched yet reads as absent (zero).
	before := []map[string]int64{{"msgs_out_total": 500, "fsyncs": 10}, {"msgs_out_total": 7, "fsyncs": 3}}
	after := []map[string]int64{{"msgs_out_total": 20}, {"msgs_out_total": 9, "fsyncs": 4}}
	if got := sumDelta(before, after, "msgs_out_total"); got != 22 {
		t.Errorf("fleet delta across one restart: %v, want 22", got)
	}
	if got := sumDelta(before, after, "fsyncs"); got != 1 {
		t.Errorf("fleet delta with a reset counter: %v, want 1", got)
	}
}

func TestContentIsSeeded(t *testing.T) {
	a, b := content(1, 5, 100), content(1, 5, 100)
	if !bytes.Equal(a, b) {
		t.Error("same seed and index gave different content")
	}
	if bytes.Equal(a, content(2, 5, 100)) || bytes.Equal(a, content(1, 6, 100)) {
		t.Error("different seed or index gave the same content")
	}
	if !bytes.Equal(content(1, 5, 13), a[:13]) {
		t.Error("content is not a prefix-stable stream")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the metrics this program reports identical, names and units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cfg.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, cfg.Workloads[i].Name, w)
		}
	}
}

func TestFastSlices(t *testing.T) {
	mk := func(ops ...float64) []sliceStat {
		ss := make([]sliceStat, len(ops))
		for i, o := range ops {
			ss[i] = sliceStat{opsPerS: o}
		}
		return ss
	}
	got := fastSlices(mk(5, 9, 1, 7, 3, 10, 8, 2, 6, 4))
	if len(got) != 5 {
		t.Fatalf("fastSlices kept %d of 10 slices, want 5", len(got))
	}
	for i, s := range got {
		if want := float64(10 - i); s.opsPerS != want {
			t.Errorf("kept slice %d has %v ops/s, want %v: the fastest half, fastest first", i, s.opsPerS, want)
		}
	}
	if got := fastSlices(mk(4, 2)); len(got) != 1 || got[0].opsPerS != 4 {
		t.Errorf("fastSlices of two kept %+v, want the faster one", got)
	}
}
