package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is how far apart a side's own runs lie, as a share of their
// median: the quartile distance with four runs or more, the range below
// that, 0 for a single run.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return ratio(hi-lo, median(s))
}

// quartiles returns the first and third quartile of sorted values the
// way Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// metricsOf picks one of a result's metric maps.
type metricsOf func(*result) map[string]metricValue

func endToEndOf(r *result) map[string]metricValue { return r.EndToEnd }
func perLayerOf(r *result) map[string]metricValue { return r.PerLayer }

func values(runs []*result, metric string, of metricsOf) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, of(r)[metric].Value)
	}
	return v
}

func failedShare(runs []*result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// comparable reports why two result files cannot be compared: their load
// or their host's parallelism differs. Seed, commit and toolchain may.
func comparable(a, b fingerprint) error {
	a.Seed, a.GitCommit, a.GoVersion, a.GFKernel = 0, "", "", ""
	b.Seed, b.GitCommit, b.GoVersion, b.GFKernel = 0, "", "", ""
	if a != b {
		return fmt.Errorf("not comparable: A ran %+v, B ran %+v", a, b)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, A, B and B/A
// with the bound, and marks each pair worse (B's median is worse than A's
// by more than the bound and by more than either side's spread) / within
// bound / unresolved (a side's spread is wider than the bound).
// A is the base of every ratio. It returns 1 when any metric is worse or
// failed_op_share rose, 2 when the files cannot be compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := comparable(a.Fingerprint, b.Fingerprint); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "A: %+v\nB: %+v\n", a.Fingerprint, b.Fingerprint)
	worse := 0
	for _, name := range sortedKeys(a.Workloads) {
		runsA, runsB := a.Workloads[name], b.Workloads[name]
		if len(runsB) == 0 {
			fmt.Fprintf(w, "\n%s: missing from B\n", name)
			worse++
			continue
		}
		fmt.Fprintf(w, "\n%s (A %d runs, B %d runs)\n", name, len(runsA), len(runsB))
		row := func(d metricDef, of metricsOf) {
			va, vb := values(runsA, d.Name, of), values(runsB, d.Name, of)
			ma, mb := median(va), median(vb)
			// loss is how much worse B is than A, as a share of A.
			loss := ratio(mb-ma, ma)
			if d.Better == higher {
				loss = -loss
			}
			// A loss counts when it is beyond the bound and beyond what
			// either side's own runs differ by; runs that cannot tell a
			// bound-sized difference leave the pair unresolved.
			noise := max(spread(va), spread(vb))
			verdict := "within bound"
			switch {
			case loss > d.Bound && loss > noise:
				verdict = "worse"
				worse++
			case noise > d.Bound:
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Fprintf(w, "  %-20s A %14.6g  B %14.6g %-5s B/A %.4f (base A)  bound %.1f%%  spread A %.1f%% B %.1f%%  %s\n",
				d.Name, ma, mb, d.Unit, ratio(mb, ma), d.Bound*100, spread(va)*100, spread(vb)*100, verdict)
		}
		for _, d := range a.EndToEnd {
			if wl := findWorkload(name); wl != nil && timed[d.Name] {
				d.Bound = wl.timeBound
			}
			row(d, endToEndOf)
		}
		for _, d := range gates[name] {
			row(d, perLayerOf)
		}
		fa, fb := failedShare(runsA), failedShare(runsB)
		verdict := "may not rise: ok"
		if fb > fa {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "  %-20s A %14.6g  B %14.6g        %s\n", "failed_op_share", fa, fb, verdict)
	}
	if worse > 0 {
		fmt.Fprintf(w, "\n%d worse\n", worse)
		return 1
	}
	return 0
}
