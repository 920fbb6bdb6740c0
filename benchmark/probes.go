package main

import (
	"fmt"
	"time"

	"approxcode/internal/bench"
	"approxcode/internal/core"
	"approxcode/internal/gf256"
	"approxcode/internal/video"
)

// Direct probes: the layers below the store, called on the workload
// geometry outside any workload, so a kernel or coder change can be
// followed from gf256.* through coder.* and core.* up to the end-to-end
// metric it should move. They do not depend on the workload, so a process
// runs them once and every workload it runs reports the same values.

// probe runs fn for about d (at least three times) and returns the
// median seconds per call.
func probe(d time.Duration, fn func() error) (float64, error) {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < d; {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

func mbps(bytes int, seconds float64) float64 { return ratio(float64(bytes)/1e6, seconds) }

// withErased returns a copy of the shard list with the erased entries,
// and every entry not in keep (when keep is non-nil), set to nil.
func withErased(shards [][]byte, erased, keep []int) [][]byte {
	out := make([][]byte, len(shards))
	if keep == nil {
		copy(out, shards)
	}
	for _, i := range keep {
		out[i] = shards[i]
	}
	for _, i := range erased {
		out[i] = nil
	}
	return out
}

// probed holds the direct probes' values once they have run.
var probed metricSet

// directProbes copies the gf256, coder and core probes into m, running
// them on the first call.
func directProbes(cfg config, m metricSet) error {
	if probed == nil {
		p := metricSet{}
		for _, fn := range []func(config, metricSet) error{probeGF, probeCoders, probeCore} {
			if err := fn(cfg, p); err != nil {
				return err
			}
		}
		probed = p
	}
	for name, v := range probed {
		m[name] = v
	}
	return nil
}

// workloadProbes runs the probes that take their input from a workload's
// loaded run.
func workloadProbes(w *workload, cfg config, m metricSet, res *loadResult) error {
	if w.name == "ingest_durable" {
		us, err := fsyncProbe(cfg, res.storedUser/int64(cfg.ingestObjects))
		if err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
		m["journal.fsync_probe_us"] = us
	}
	return probeVideo(cfg, m, res.flagged)
}

func probeGF(cfg config, m metricSet) error {
	src, dst := make([]byte, geo.nodeSize), make([]byte, geo.nodeSize)
	newRNG(cfg.seed, "probe/gf256").fill(src)
	for name, fn := range map[string]func(){
		"gf256.muladd_mbps": func() { gf256.MulAddSlice(0x53, src, dst) },
		"gf256.mul_mbps":    func() { gf256.MulSlice(0x53, src, dst) },
		"gf256.xor_mbps":    func() { gf256.XorSlice(src, dst) },
	} {
		// One call is a few microseconds: time a batch.
		s, err := probe(cfg.probeTime, func() error {
			for i := 0; i < 32; i++ {
				fn()
			}
			return nil
		})
		if err != nil {
			return err
		}
		m[name] = mbps(32*len(src), s)
	}
	return nil
}

// probeCoders times the paper's 3DFT baselines at k=5 on 128 KiB shards:
// encode, and decode of two erased data shards.
func probeCoders(cfg config, m metricSet) error {
	for name, family := range map[string]core.Family{
		"rs": core.FamilyRS, "lrc": core.FamilyLRC, "star": core.FamilySTAR, "tip": core.FamilyTIP,
	} {
		c, err := bench.BuildBaseline(family, geo.code.K, geo.code.H)
		if err != nil {
			return err
		}
		size := geo.nodeSize - geo.nodeSize%c.ShardSizeMultiple()
		shards := make([][]byte, c.TotalShards())
		r := newRNG(cfg.seed, "probe/coder/"+name)
		for i := range shards {
			shards[i] = make([]byte, size)
			if i < c.DataShards() {
				r.fill(shards[i])
			}
		}
		enc, err := probe(cfg.probeTime, func() error { return c.Encode(shards) })
		if err != nil {
			return fmt.Errorf("%s encode: %w", c.Name(), err)
		}
		dec, err := probe(cfg.probeTime, func() error {
			return c.Reconstruct(withErased(shards, []int{0, 1}, nil))
		})
		if err != nil {
			return fmt.Errorf("%s decode: %w", c.Name(), err)
		}
		data := c.DataShards() * size
		m["coder."+name+"_encode_mbps"] = mbps(data, enc)
		m["coder."+name+"_decode_mbps"] = mbps(data, dec)
	}
	return nil
}

// probeCore times the framework on one 26×128 KiB stripe.
func probeCore(cfg config, m metricSet) error {
	code, err := core.New(geo.code)
	if err != nil {
		return err
	}
	r := newRNG(cfg.seed, "probe/core")
	shards := make([][]byte, code.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, geo.nodeSize)
		if code.Role(i) == core.RoleData {
			r.fill(shards[i])
		}
	}
	enc, err := probe(cfg.probeTime, func() error { return code.Encode(shards) })
	if err != nil {
		return err
	}
	m["core.encode_us_per_stripe"] = enc * 1e6
	m["core.encode_mbps"] = mbps(code.DataShards()*geo.nodeSize, enc)

	reconstruct := func(erased []int) (float64, error) {
		plan, err := code.PlanRead(erased)
		if err != nil {
			return 0, err
		}
		s, err := probe(cfg.probeTime, func() error {
			return code.ReconstructErased(withErased(shards, erased, plan), erased)
		})
		return s * 1e6, err
	}
	one := []int{geo.dataNode(1, 0)}
	if m["core.reconstruct1_us_per_stripe"], err = reconstruct(one); err != nil {
		return err
	}
	three := []int{geo.dataNode(0, 0), geo.dataNode(0, 1), geo.dataNode(0, 2)}
	if m["core.reconstruct3_us_per_stripe"], err = reconstruct(three); err != nil {
		return err
	}
	plan, err := probe(cfg.probeTime, func() error {
		_, err := code.PlanRead(one)
		return err
	})
	if err != nil {
		return err
	}
	m["core.planread_ns"] = plan * 1e9

	sub := make([]byte, geo.nodeSize/geo.code.H)
	upd, err := probe(cfg.probeTime, func() error {
		r.fill(sub)
		_, err := code.Update(shards, geo.dataNode(0, 0), 0, sub)
		return err
	})
	if err != nil {
		return err
	}
	m["core.update_us"] = upd * 1e6
	return nil
}

// probeVideo interpolates the frames the final degraded_repair phase
// flagged Approximate (segment id = frame index of a stream with the
// corpus's GOP pattern) and scores them: the quality side of
// approx_share. Without flagged frames it reports nothing.
func probeVideo(cfg config, m metricSet, flagged []int) error {
	if len(flagged) == 0 {
		return nil
	}
	vc := video.DefaultConfig()
	vc.GOP, vc.Seed = gopPattern, cfg.seed
	stream, err := video.Generate(vc, segsPerObject)
	if err != nil {
		return err
	}
	lost := make(map[int]bool, len(flagged))
	for _, id := range flagged {
		lost[id] = true
	}
	start := time.Now()
	rec, err := stream.RecoverLost(lost)
	if err != nil {
		return err
	}
	m["video.interp_us_per_frame"] = float64(time.Since(start)) / 1e3 / float64(len(lost))
	m["video.interp_psnr_db"] = rec.MeanPSNR
	return nil
}
