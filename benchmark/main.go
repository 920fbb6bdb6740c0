// Command benchmark is the one benchmark of the tiered video store: four
// closed-loop workloads against the store's public entry points, every
// returned byte checked, end-to-end metrics from an untraced run and a
// per-layer budget from a traced run. See README.md.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -compare A.json B.json
//
// BENCHMARK.json's driver runs one workload per process:
//
//	bash benchmark/run.sh --workload tcp_mixed --seed 7 --seconds 15 --trace 0
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"approxcode/internal/gf256"
)

// fingerprint identifies the host and the configuration of a result file.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GFKernel   string  `json:"gf256_kernel"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Seed       int64   `json:"seed"`
	GitCommit  string  `json:"git_commit"`
}

func newFingerprint(cfg config) fingerprint {
	return fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GFKernel: gf256.Kernel(), Clients: cfg.clients, Seconds: cfg.seconds.Seconds(), Seed: cfg.seed,
		GitCommit: gitCommit(),
	}
}

// gitCommit is the commit the binary was built from, "+dirty" when the
// tree had uncommitted changes. `go build` stamps both into the binary;
// `go run` does not, so there the working directory's repository is asked.
// Outside a repository (the driver's checkout) it is "unknown".
func gitCommit() string {
	var rev string
	var dirty bool
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err != nil || len(status) > 0
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// resultFile is what a run leaves in <out>/result.json and what
// -compare reads: every run of every workload, with the host.
type resultFile struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	EndToEnd    []metricDef          `json:"end_to_end"`
	Workloads   map[string][]*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to run: all, or one of ingest_durable, playback_mem, degraded_repair, tcp_mixed")
		seed         = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds      = fs.Float64("seconds", 0, "timed section per workload, in seconds (default 15, smoke 1)")
		trace        = fs.Int("trace", 1, "1: also run the traced op list and the probes and report per-layer metrics; 0: end-to-end metrics only")
		smoke        = fs.Bool("smoke", false, "small configuration: 8 objects, 1 s per workload")
		runs         = fs.Int("runs", 1, "repeat each workload this many times (result.json keeps every run)")
		out          = fs.String("out", filepath.Join("benchmark", "out"), "directory for traces, result.json and temporary data")
		compare      = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	fs.Float64Var(seconds, "duration", 0, "alias of -seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	cfg := fullConfig()
	if *smoke {
		cfg = smokeConfig()
	}
	if *seconds > 0 {
		cfg.seconds = time.Duration(*seconds * float64(time.Second))
	}
	cfg.seed, cfg.trace, cfg.outDir = *seed, *trace != 0, *out

	selected := workloads
	if *workloadName != "all" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))

	file := resultFile{Fingerprint: newFingerprint(cfg), EndToEnd: endToEnd, Workloads: map[string][]*result{}}
	fmt.Fprintf(stdout, "host: %+v\n", file.Fingerprint)
	ok := true
	var last *result
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(w, cfg, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printResult(stdout, w, res)
			file.Workloads[w.name] = append(file.Workloads[w.name], res)
			ok = ok && res.Correct
			last = res
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(selected) == 1 {
		// The driver's contract: one JSON object on the last line.
		line, err := json.Marshal(last.contract(cfg.trace))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark:", errSilentMismatch)
		return 1
	}
	return 0
}

// contract is the object the driver reads: per-layer metrics from a
// traced run, end-to-end metrics otherwise.
func (r *result) contract(traced bool) any {
	metrics := r.EndToEnd
	if traced {
		metrics = r.PerLayer
	}
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// printResult prints every metric by name with unit, direction and, for
// end-to-end metrics and the workload's gates, the bound -compare holds
// it to.
func printResult(w io.Writer, wl *workload, r *result) {
	fmt.Fprintf(w, "\n== %s — %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	if r.FirstFail != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstFail)
	}
	for _, d := range endToEnd {
		if timed[d.Name] {
			d.Bound = wl.timeBound
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %-6s is better, bound %.1f%%, n=%d\n",
			d.Name, r.EndToEnd[d.Name].Value, d.Unit, d.Better, d.Bound*100, r.Samples[d.Name])
	}
	for _, d := range gates[wl.name] {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %-6s is better, bound %.1f%%\n",
			d.Name, r.PerLayer[d.Name].Value, d.Unit, d.Better, d.Bound*100)
	}
	if !r.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %-6s is better\n", d.Name, r.PerLayer[d.Name].Value, d.Unit, d.Better)
	}
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
