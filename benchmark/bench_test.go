package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"approxcode/internal/chaos"
)

func testConfig(t *testing.T) config {
	t.Helper()
	cfg := smokeConfig()
	cfg.seed, cfg.outDir = 1, t.TempDir()
	return cfg
}

// opLists is every seeded op list the benchmark issues, by name.
func opLists(cfg config) map[string][]op {
	lists := map[string][]op{
		"ingest/client1":   ingestOps(newRNG(cfg.seed, "ingest"), cfg.ingestObjects, 1, 2),
		"degraded/cycle3":  degradedReads(cfg, 3, 0, cfg.cycleGetSegs, cfg.cycleGets),
		"playback/clients": playbackOps(newRNG(cfg.seed, "playback_mem/client/0"), cfg.playbackObjects, 50),
	}
	for _, w := range workloads {
		lists["trace/"+w.name] = w.traceOps(cfg)
	}
	return lists
}

func TestSameSeedSameInputs(t *testing.T) {
	cfg := testConfig(t)
	other := cfg
	other.seed = 2
	if a, b := genCorpus(cfg.seed, 4).digest(), genCorpus(cfg.seed, 4).digest(); a != b {
		t.Errorf("same seed, different corpus: %s vs %s", a, b)
	}
	if a, b := genCorpus(cfg.seed, 4).digest(), genCorpus(other.seed, 4).digest(); a == b {
		t.Errorf("seeds 1 and 2 generate the same corpus %s", a)
	}
	again, differ := opLists(cfg), opLists(other)
	for name, ops := range opLists(cfg) {
		if len(ops) == 0 {
			t.Errorf("%s: empty op list", name)
		}
		if opListDigest(ops) != opListDigest(again[name]) {
			t.Errorf("%s: same seed, different op list", name)
		}
		if opListDigest(ops) == opListDigest(differ[name]) {
			t.Errorf("%s: seeds 1 and 2 generate the same op list", name)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		a1, b1 := failedPair(geo, cfg.seed, cycle)
		a2, b2 := failedPair(geo, cfg.seed, cycle)
		if a1 != a2 || b1 != b2 {
			t.Errorf("cycle %d: failed pair not reproducible", cycle)
		}
		if a1 >= geo.code.K || b1 < geo.code.K+geo.code.R || b1%(geo.code.K+geo.code.R) >= geo.code.K {
			t.Errorf("cycle %d: pair (%d,%d) is not a data node of group 0 plus a data node of another group", cycle, a1, b1)
		}
	}
}

// TestObjectsKeepTheNominalSize pins the property storage_overhead's
// 0.1 % bound rests on: every object has the same byte total and fits
// one global stripe, whatever the seed.
func TestObjectsKeepTheNominalSize(t *testing.T) {
	want := int64(gopsPerObject * (sizeI + 9*sizeP + 20*sizeB))
	for seed := int64(1); seed <= 20; seed++ {
		o := genObject(seed, int(seed))
		if o.bytes != want {
			t.Fatalf("seed %d: object is %d bytes, want %d", seed, o.bytes, want)
		}
		for _, s := range o.segs {
			if len(s.Data) > geo.nodeSize/geo.code.H {
				t.Fatalf("seed %d: segment %d is %d bytes, above the %d-byte sub-block", seed, s.ID, len(s.Data), geo.nodeSize/geo.code.H)
			}
		}
	}
}

// Inner NodeIOs with each combination of the optional interfaces.
type plainIO struct{}

func (plainIO) ReadColumn(int, string, int) ([]byte, error) { return []byte{1}, nil }
func (plainIO) WriteColumn(int, string, int, []byte) error  { return nil }

type partialIO struct{ plainIO }

func (partialIO) ReadColumnAt(int, string, int, int, int) ([]byte, error) { return []byte{2}, nil }

type ctxIO struct{ plainIO }

func (ctxIO) ReadColumnCtx(context.Context, int, string, int) ([]byte, error) {
	return []byte{3}, nil
}
func (ctxIO) ReadColumnAtCtx(context.Context, int, string, int, int, int) ([]byte, error) {
	return []byte{4}, nil
}
func (ctxIO) WriteColumnCtx(context.Context, int, string, int, []byte) error { return nil }

type bothIO struct {
	partialIO
	ctxIO
}

func (bothIO) ReadColumn(int, string, int) ([]byte, error) { return []byte{1}, nil }
func (bothIO) WriteColumn(int, string, int, []byte) error  { return nil }

func TestTapExposesOnlyWhatTheInnerHas(t *testing.T) {
	for _, tc := range []struct {
		name         string
		inner        chaos.NodeIO
		partial, ctx bool
	}{
		{"plain", plainIO{}, false, false},
		{"partial", partialIO{}, true, false},
		{"ctx", ctxIO{}, false, true},
		{"both", bothIO{}, true, true},
	} {
		tapped, counts := newTap(tc.inner, layerNodeIO, nil)
		pr, partial := tapped.(chaos.PartialReader)
		cio, ctx := tapped.(chaos.CtxIO)
		if partial != tc.partial || ctx != tc.ctx {
			t.Errorf("%s: tap has PartialReader=%v CtxIO=%v, inner has %v %v", tc.name, partial, ctx, tc.partial, tc.ctx)
			continue
		}
		if _, err := tapped.ReadColumn(0, "o", 0); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := tapped.WriteColumn(0, "o", 0, []byte{9, 9}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		wantReadAt := int64(0)
		if partial {
			if got, _ := pr.ReadColumnAt(0, "o", 0, 0, 1); !bytes.Equal(got, []byte{2}) {
				t.Errorf("%s: ReadColumnAt did not reach the inner PartialReader: %v", tc.name, got)
			}
			wantReadAt++
		}
		if ctx {
			if got, _ := cio.ReadColumnAtCtx(context.Background(), 0, "o", 0, 0, 1); !bytes.Equal(got, []byte{4}) {
				t.Errorf("%s: ReadColumnAtCtx did not reach the inner CtxIO: %v", tc.name, got)
			}
			wantReadAt++
		}
		s := counts.snapshot()
		if s.readCalls != 1 || s.writeCalls != 1 || s.readAtCalls != wantReadAt || s.writeBytes != 2 || s.readBytes != 1+wantReadAt {
			t.Errorf("%s: counts %+v", tc.name, s)
		}
	}
}

// TestTracedAndUntracedMoveTheSameTraffic runs one op list without and
// with the pass-through: the store must move identical NodeIO calls and
// bytes, and the pass-through must count what the store counts.
// playback_mem is left out: its tier cache shards by a per-process
// random hash seed, so its evictions differ from store to store.
func TestTracedAndUntracedMoveTheSameTraffic(t *testing.T) {
	cfg := testConfig(t)
	for _, name := range []string{"ingest_durable", "degraded_repair", "tcp_mixed"} {
		w := findWorkload(name)
		ops := w.traceOps(cfg)
		plain, err := runList(w, cfg, ops, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		tr := newTracer()
		traced, err := runList(w, cfg, ops, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for _, c := range storeCounterNames[:4] {
			if plain.store[c] != traced.store[c] {
				t.Errorf("%s: %s is %d untraced, %d traced", name, c, plain.store[c], traced.store[c])
			}
		}
		tap, st := traced.tap, traced.store
		if got, want := tap.readCalls+tap.readAtCalls, st["store_node_read_attempts_total"]; got != want {
			t.Errorf("%s: pass-through saw %d reads, the store counted %d", name, got, want)
		}
		if got, want := tap.writeCalls, st["store_node_write_attempts_total"]; got != want {
			t.Errorf("%s: pass-through saw %d writes, the store counted %d", name, got, want)
		}
		if tap.readBytes != st["store_node_read_bytes_total"] || tap.writeBytes != st["store_node_write_bytes_total"] {
			t.Errorf("%s: pass-through moved %d/%d bytes, the store counted %d/%d", name,
				tap.readBytes, tap.writeBytes, st["store_node_read_bytes_total"], st["store_node_write_bytes_total"])
		}
		if tap.readAtCalls != st["store_partial_reads_total"] {
			t.Errorf("%s: %d partial reads through the pass-through, %d in the store: a read fell back to whole columns",
				name, tap.readAtCalls, st["store_partial_reads_total"])
		}
		for _, c := range tr.opCosts() {
			if c.self < 0 || c.self+c.nodeio != c.total {
				t.Errorf("%s: %s: self %d + nodeio %d != total %d", name, c.name, c.self, c.nodeio, c.total)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 20}}
	if got := covered(iv, 1, 10); got != 3+3+2 {
		t.Errorf("covered = %d, want 8", got)
	}
}

// TestSmoke runs all four workloads, traced, at the smoke size — the
// configuration that keeps the harness compiling and its checks firing
// under `go test ./...`.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "all", "-seed", "1", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	// About 8 s on two cores; a load-dependent limit would make tier-1 flaky.
	t.Logf("smoke took %v", time.Since(start))
	file, err := readResultFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	zeroOn := map[string][]string{
		// The predicted "no change" cells: a layer a workload bypasses reads 0.
		"journal.batches_per_put":        {"playback_mem", "degraded_repair", "tcp_mixed"},
		"journal.bytes_per_user_byte":    {"playback_mem", "degraded_repair", "tcp_mixed"},
		"net.rpcs_per_op":                {"ingest_durable", "playback_mem", "degraded_repair"},
		"net.wire_us_per_rpc":            {"ingest_durable", "playback_mem", "degraded_repair"},
		"net.wire_bytes_per_user_byte":   {"ingest_durable", "playback_mem", "degraded_repair"},
		"backend.busy_share":             {"ingest_durable", "playback_mem", "degraded_repair"},
		"store.degraded_subreads_per_op": {"ingest_durable", "playback_mem", "tcp_mixed"},
		"store.approx_share":             {"ingest_durable", "playback_mem", "tcp_mixed"},
		"core.plancache_hit_share":       {"ingest_durable", "playback_mem", "tcp_mixed"},
		"tier.cache_hit_share":           {"ingest_durable", "degraded_repair", "tcp_mixed"},
		"store.retries":                  {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
		"store.checksum_demotions":       {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
		"store.overloaded":               {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
		"store.failed_op_share":          {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
	}
	positiveOn := map[string][]string{
		"journal.records_per_batch":      {"ingest_durable"},
		"journal.fsync_probe_us":         {"ingest_durable"},
		"store.recover_s":                {"ingest_durable"},
		"store.put_self_us":              {"ingest_durable", "tcp_mixed"},
		"store.getseg_self_us":           {"playback_mem", "degraded_repair", "tcp_mixed"},
		"tier.cache_hit_share":           {"playback_mem"},
		"tier.migrate_mbps":              {"playback_mem"},
		"store.degraded_subreads_per_op": {"degraded_repair"},
		"store.repair_mbps":              {"degraded_repair"},
		"store.repair_read_amp":          {"degraded_repair"},
		"store.approx_share":             {"degraded_repair"},
		"core.plancache_hit_share":       {"degraded_repair"},
		"video.interp_psnr_db":           {"degraded_repair"},
		"net.wire_us_per_rpc":            {"tcp_mixed"},
		"backend.write_us":               {"tcp_mixed"},
		"nodeio.busy_us_per_op":          {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
		"core.encode_mbps":               {"ingest_durable", "tcp_mixed"},
		"gf256.muladd_mbps":              {"playback_mem"},
		"trace.spans":                    {"ingest_durable", "playback_mem", "degraded_repair", "tcp_mixed"},
	}
	for _, w := range workloads {
		runs := file.Workloads[w.name]
		if len(runs) != 1 {
			t.Fatalf("%s: %d runs in result.json", w.name, len(runs))
		}
		r := runs[0]
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.name, r.Correct, r.Attempted, r.Failed, r.FirstFail)
		}
		for _, d := range endToEnd {
			if v, ok := r.EndToEnd[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.name, d.Name, v, d.Unit)
			}
		}
		if len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, catalogue has %d", w.name, len(r.PerLayer), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	check := func(cells map[string][]string, ok func(float64) bool, want string) {
		for metric, names := range cells {
			for _, name := range names {
				v, present := file.Workloads[name][0].PerLayer[metric]
				if !present || !ok(v.Value) {
					t.Errorf("%s on %s = %v, want %s", metric, name, v.Value, want)
				}
			}
		}
	}
	check(zeroOn, func(v float64) bool { return v == 0 }, "0")
	check(positiveOn, func(v float64) bool { return v > 0 }, "> 0")
	if !strings.Contains(stdout.String(), "budget tcp_mixed") {
		t.Error("no budget rows printed")
	}
	if _, err := os.Stat(filepath.Join(out, "tmp")); !os.IsNotExist(err) {
		t.Errorf("temporary stores left behind: %v", err)
	}
}

// TestContractLine checks the last line of a single-workload run against
// the driver's contract.
func TestContractLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout bytes.Buffer
		out := t.TempDir()
		args := []string{"--smoke", "--workload", "degraded_repair", "--seed", "5", "--seconds", "0.3", "--trace", tc.trace, "--out", out}
		if code := run(args, &stdout, io.Discard); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stdout.String())
		}
		// -compare's gates come from the loaded run, traced or not.
		file, err := readResultFile(filepath.Join(out, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range gates["degraded_repair"] {
			if v := file.Workloads["degraded_repair"][0].PerLayer[d.Name]; !(v.Value > 0) {
				t.Errorf("trace %s: gate %s = %v, want > 0", tc.trace, d.Name, v.Value)
			}
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(got) != 4 {
			t.Errorf("trace %s: keys %v, want correct, attempted, failed, metrics", tc.trace, sortedKeys(got))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v", tc.trace, d.Name, m)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// program's catalogue the same list.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// fileWith is a result file of one workload whose metrics all read 100
// except the given ones, one run per listed value; names of the per-layer
// catalogue land in PerLayer.
func fileWith(workload string, values map[string][]float64, failed int64) *resultFile {
	f := &resultFile{EndToEnd: endToEnd, Workloads: map[string][]*result{}}
	n := 1
	for _, v := range values {
		n = max(n, len(v))
	}
	for i := 0; i < n; i++ {
		r := &result{Workload: workload, Correct: true, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		for _, d := range perLayer {
			r.PerLayer[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		for name, v := range values {
			if strings.Contains(name, ".") {
				r.PerLayer[name] = metricValue{Value: v[i%len(v)]}
			} else {
				r.EndToEnd[name] = metricValue{Value: v[i%len(v)]}
			}
		}
		f.Workloads[workload] = append(f.Workloads[workload], r)
	}
	return f
}

func TestCompare(t *testing.T) {
	one := func(name string, v ...float64) map[string][]float64 { return map[string][]float64{name: v} }
	for _, tc := range []struct {
		name     string
		workload string
		a, b     map[string][]float64
		failedB  int64
		exit     int
		want     string
	}{
		{"same", "playback_mem", one("ops_per_s", 100, 101, 99), one("ops_per_s", 100, 101, 99), 0, 0, "within bound"},
		{"throughput down 20% in process", "playback_mem", nil, one("ops_per_s", 80, 81, 79), 0, 1, "worse"},
		{"throughput down 20% over tcp", "tcp_mixed", nil, one("ops_per_s", 80, 81, 79), 0, 0, "within bound"},
		{"throughput down 40% over tcp", "tcp_mixed", nil, one("ops_per_s", 60), 0, 1, "worse"},
		{"throughput up 40%", "playback_mem", nil, one("ops_per_s", 140), 0, 0, "within bound"},
		{"latency up 20%", "degraded_repair", nil, one("object_op_p50_us", 120), 0, 1, "worse"},
		{"set-up up 20%", "degraded_repair", nil, one("setup_s", 120), 0, 0, "within bound"},
		{"noisy", "playback_mem", nil, one("ops_per_s", 80, 100, 125), 0, 0, "unresolved"},
		{"down 20%, noisier than that", "playback_mem", nil, one("ops_per_s", 65, 80, 100), 0, 0, "unresolved"},
		{"down 40%, noisy", "playback_mem", nil, one("ops_per_s", 50, 60, 70), 0, 1, "worse"},
		{"more failures", "playback_mem", nil, nil, 3, 1, "failed_op_share"},
		{"repair rate down 20%", "degraded_repair", nil, one("store.repair_mbps", 80), 0, 1, "worse"},
		{"repair rate is no gate elsewhere", "playback_mem", nil, one("store.repair_mbps", 80), 0, 0, "within bound"},
		{"approximate share up 1%", "degraded_repair", nil, one("store.approx_share", 101), 0, 1, "worse"},
		{"tcp put 40% slower", "tcp_mixed", nil, one("store.put_p50_us", 140), 0, 1, "worse"},
	} {
		var out bytes.Buffer
		a, b := fileWith(tc.workload, tc.a, 0), fileWith(tc.workload, tc.b, tc.failedB)
		if got := compareResults(a, b, &out); got != tc.exit {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.exit, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q\n%s", tc.name, tc.want, out.String())
		}
	}
}

// TestCompareRefusesAnotherLoad: two files are comparable across seeds and
// commits, not across client counts, run lengths or core counts.
func TestCompareRefusesAnotherLoad(t *testing.T) {
	a := fingerprint{NProc: 2, GOMAXPROCS: 2, Clients: 2, Seconds: 15, Seed: 1, GitCommit: "aaa", GoVersion: "go1.24.0", GFKernel: "avx2"}
	b := a
	b.Seed, b.GitCommit = 2, "bbb+dirty"
	if err := comparable(a, b); err != nil {
		t.Errorf("another seed and commit: %v", err)
	}
	for name, change := range map[string]func(*fingerprint){
		"clients":    func(f *fingerprint) { f.Clients = 4 },
		"seconds":    func(f *fingerprint) { f.Seconds = 1 },
		"gomaxprocs": func(f *fingerprint) { f.GOMAXPROCS = 1 },
	} {
		b := a
		change(&b)
		if comparable(a, b) == nil {
			t.Errorf("%s differ and the files still compare", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
