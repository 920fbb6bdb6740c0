package bench

import (
	"testing"

	"approxcode/internal/core"
	"approxcode/internal/erasure"
)

// fastTiming keeps harness tests quick.
func fastTiming() TimingConfig { return TimingConfig{ShardSize: 8 * 1024, Iters: 1} }

func TestValidKMatchesPaperSlashes(t *testing.T) {
	// The "/" cells of the paper's tables: STAR invalid at k=9,15; TIP
	// invalid at k=7,13.
	if ValidK(core.FamilySTAR, 9) || ValidK(core.FamilySTAR, 15) {
		t.Fatal("STAR must reject non-prime k")
	}
	if ValidK(core.FamilyTIP, 7) || ValidK(core.FamilyTIP, 13) {
		t.Fatal("TIP must reject k with k+2 non-prime")
	}
	for _, k := range []int{5, 7, 11, 13, 17} {
		if !ValidK(core.FamilySTAR, k) {
			t.Fatalf("STAR must accept prime k=%d", k)
		}
	}
	for _, k := range []int{5, 9, 11, 15, 17} {
		if !ValidK(core.FamilyTIP, k) {
			t.Fatalf("TIP must accept k=%d", k)
		}
	}
	for _, k := range PaperKs {
		if !ValidK(core.FamilyRS, k) || !ValidK(core.FamilyLRC, k) {
			t.Fatalf("RS/LRC must accept k=%d", k)
		}
	}
}

func TestBuildersAllSweepConfigs(t *testing.T) {
	for _, f := range Families {
		for _, k := range PaperKs {
			if !ValidK(f, k) {
				if _, err := BuildBaseline(f, k, 4); err == nil && f != core.FamilyLRC && f != core.FamilyRS {
					t.Errorf("%s k=%d: invalid config accepted", f, k)
				}
				continue
			}
			for _, h := range PaperHs {
				if _, err := BuildBaseline(f, k, h); err != nil {
					t.Errorf("baseline %s k=%d h=%d: %v", f, k, h, err)
				}
				if _, err := BuildAppr(f, k, h, core.Even); err != nil {
					t.Errorf("appr %s k=%d h=%d: %v", f, k, h, err)
				}
			}
		}
	}
	if _, err := BuildBaseline(core.Family("nope"), 5, 4); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestAlignSize(t *testing.T) {
	if AlignSize(100, 24) != 96 {
		t.Fatal("alignment wrong")
	}
	if AlignSize(10, 24) != 24 {
		t.Fatal("minimum alignment wrong")
	}
	if AlignSize(96, 24) != 96 {
		t.Fatal("exact alignment changed")
	}
}

func TestMeasureEncodeDecodeBasics(t *testing.T) {
	tc := fastTiming()
	for _, f := range Families {
		c, err := BuildBaseline(f, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		secs, bytes, err := MeasureEncode(c, tc)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		if secs < 0 || bytes <= 0 {
			t.Fatalf("%s: nonsense measurement", c.Name())
		}
		for fails := 1; fails <= 3; fails++ {
			secs, fb, err := MeasureDecode(c, FailureNodes(c, fails), tc)
			if err != nil {
				t.Fatalf("%s decode f=%d: %v", c.Name(), fails, err)
			}
			if secs < 0 || fb <= 0 {
				t.Fatalf("%s: nonsense decode measurement", c.Name())
			}
		}
	}
}

func TestFailureNodesAppr(t *testing.T) {
	c, err := BuildAppr(core.FamilyRS, 5, 4, core.Uneven)
	if err != nil {
		t.Fatal(err)
	}
	nodes := FailureNodes(c, 3)
	if len(nodes) != 3 {
		t.Fatal("wrong count")
	}
	for _, n := range nodes {
		if c.Role(n) != core.RoleData {
			t.Fatal("failure node is not a data node")
		}
		if c.StripeOf(n) != 1 {
			t.Fatal("failures must land on stripe 1")
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	// Spot-check the headline cell: APPR.RS(k,1,2,6) at k=5 -> 20.8%.
	for _, r := range rows {
		if r.Name == "APPR.RS(k,1,2,6)" {
			if v := r.Values[5]; v < 0.2075 || v > 0.2085 {
				t.Fatalf("k=5 improvement %.4f want ~0.208", v)
			}
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	models := Table2(5, 4)
	if len(models) != 8 {
		t.Fatalf("k=5 must include all 8 codes, got %d", len(models))
	}
	models = Table2(9, 4) // STAR invalid at k=9
	for _, m := range models {
		if m.Name == "STAR(9)" {
			t.Fatal("invalid STAR included")
		}
	}
}

func TestFig7Ordering(t *testing.T) {
	fig := Fig7(4)
	if len(fig.Series) != 3 {
		t.Fatal("want 3 series")
	}
	for i := range fig.Series[0].Points {
		rs := fig.Series[0].Points[i].Value
		a12 := fig.Series[1].Points[i].Value
		a21 := fig.Series[2].Points[i].Value
		if !(a12 < a21 && a21 < rs) {
			t.Fatalf("point %d: overhead ordering broken", i)
		}
	}
}

func TestFig8Validity(t *testing.T) {
	fig := Fig8(6)
	for _, s := range fig.Series {
		if len(s.Points) != len(PaperKs) {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	// STAR series must be invalid at k=9 (index 2).
	if fig.Series[1].Points[2].Valid {
		t.Fatal("STAR at k=9 must be invalid")
	}
}

func TestFigEncodingShape(t *testing.T) {
	// Shards must be large enough that GF arithmetic, not per-codeword
	// setup, dominates: with the SIMD kernels the arithmetic on tiny
	// shards finishes in microseconds and fixed overhead hides the
	// fewer-parities advantage being asserted.
	fig, err := FigEncoding(core.FamilyRS, TimingConfig{ShardSize: 128 * 1024, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // baseline + h=4 + h=6
		t.Fatalf("want 3 series, got %d", len(fig.Series))
	}
	// The Approximate Codes generate fewer parities and must encode
	// faster at every k (generous slack for timer noise at tiny sizes).
	slower := 0
	for i := range PaperKs {
		base := fig.Series[0].Points[i].Value
		a4 := fig.Series[1].Points[i].Value
		if a4 > base {
			slower++
		}
	}
	if slower > 2 {
		t.Fatalf("APPR.RS slower than RS at %d of %d points", slower, len(PaperKs))
	}
}

// TestFigDecodingDoubleFailuresFaster asserts the quantity behind the
// double-failure panel of Fig. 10 rather than its wall clock (a ratio of
// two timings drifts with the host): with two nodes of an unimportant
// local stripe gone, the (k, r+g) baseline decodes both shards whole,
// while APPR.RS decodes only their important sub-stripes — the rest is
// past the local code's tolerance and left to fuzzy recovery. Per failed
// byte that must be at most half the baseline's bytes rebuilt and at
// most half its survivor bytes read, at every k of the figure.
func TestFigDecodingDoubleFailuresFaster(t *testing.T) {
	const failures, shard = 2, 64 << 10
	for _, k := range PaperKs {
		if !ValidK(core.FamilyRS, k) {
			continue
		}
		// The baseline rebuilds every failed byte from k survivor bytes
		// each: 1 rebuilt and k/failures read per failed byte.
		baseRead := float64(k) / failures
		var rebuilt, read float64
		for _, st := range []core.Structure{core.Even, core.Uneven} {
			c, err := BuildAppr(core.FamilyRS, k, 4, st)
			if err != nil {
				t.Fatal(err)
			}
			size := AlignSize(shard, c.ShardSizeMultiple())
			work, err := erasure.RandomStripe(c, size, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range FailureNodes(c, failures) {
				work[f] = nil
			}
			rep, err := c.ReconstructReport(work, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ImportantOK {
				t.Fatalf("k=%d %s: important data not recovered", k, st)
			}
			failed := float64(failures * size)
			rebuilt += float64(rep.BytesRebuilt) / failed / 2 // averaged over the two structures, as the figure is
			read += float64(rep.BytesRead) / failed / 2
		}
		if rebuilt > 0.5 || read > baseRead/2 {
			t.Fatalf("k=%d: APPR.RS rebuilds %.3f and reads %.3f bytes per failed byte; baseline 1 and %.3f, want at most half of each",
				k, rebuilt, read, baseRead)
		}
	}
}

func TestFig13ShapesAndSpeedups(t *testing.T) {
	results, err := Fig13(5, 256<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	bestSpeedup := 0.0
	for _, r := range results {
		if r.Seconds < 0 {
			t.Fatalf("%s: negative time", r.Name)
		}
		if r.Speedup > bestSpeedup {
			bestSpeedup = r.Speedup
		}
	}
	// Fig 13's shape: Approximate recovery is multiple times faster.
	if bestSpeedup < 3 {
		t.Fatalf("best recovery speedup %.2f < 3x", bestSpeedup)
	}
}

func TestReliabilityReport(t *testing.T) {
	rows, err := ReliabilityReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("want Even and Uneven rows")
	}
}

func TestRunVideo(t *testing.T) {
	rep, err := RunVideo(300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 || rep.MeanPSNR < 35 {
		t.Fatalf("video report %+v fails the paper's 35 dB bar", rep)
	}
}

func TestRunHeadline(t *testing.T) {
	rep, err := RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityReduction < 0.55 {
		t.Fatalf("parity reduction %.3f", rep.ParityReduction)
	}
	if rep.StorageSaving < 0.207 || rep.StorageSaving > 0.209 {
		t.Fatalf("storage saving %.4f", rep.StorageSaving)
	}
	if rep.RecoverySpeedup < 3 {
		t.Fatalf("recovery speedup %.2f", rep.RecoverySpeedup)
	}
}

func TestFig13DES(t *testing.T) {
	results, err := Fig13DES(5, 4, 64<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 rows, got %d", len(results))
	}
	for i := 0; i+1 < len(results); i += 2 {
		base, appr := results[i], results[i+1]
		if base.Detection != appr.Detection {
			t.Fatalf("detection latency must be code-independent: %+v vs %+v", base, appr)
		}
		if appr.Repair >= base.Repair {
			t.Fatalf("f=%d: approximate repair %.2fs not faster than baseline %.2fs",
				appr.Failures, appr.Repair, base.Repair)
		}
		if appr.Total <= appr.Detection {
			t.Fatalf("total must exceed detection: %+v", appr)
		}
	}
}
