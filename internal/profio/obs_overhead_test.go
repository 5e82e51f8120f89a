package profio

// Benchmark-driven bound on the observability layer's cost: ProfileStream
// with a live registry must stay within 5% ns/op of the uninstrumented run.
// The hot path pays one nil check plus one plain increment per event; event
// counts and everything state-derived are published at batch boundaries.

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"aprof/internal/core"
	"aprof/internal/obs"
	"aprof/internal/trace"
)

func TestObsOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped with -short")
	}
	if raceEnabled {
		t.Skip("race detector instruments every atomic op; timing bound not meaningful")
	}
	tr := trace.Random(trace.RandomConfig{Seed: 2, Ops: 20000})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Every run starts from a freshly collected heap and, with GC held off
	// below, runs without a collection: neither configuration is charged
	// for garbage the other left behind.
	run := func(cfg core.Config) time.Duration {
		runtime.GC()
		start := time.Now()
		ps, err := ProfileStream(context.Background(), bytes.NewReader(data), cfg, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ps.Events == 0 {
			t.Fatal("empty profiles")
		}
		return time.Since(start)
	}

	instrCfg := core.DefaultConfig()
	instrCfg.Obs = obs.NewRegistry()

	// Noise-robust estimator: one ProfileStream run takes a few ms, so we
	// time many short back-to-back pairs and take the median of the
	// per-pair ratios. Both runs of a pair see the same machine speed, so
	// slow drift cancels inside each ratio, and the median ignores the
	// pairs a load spike hits. The order inside a pair alternates so
	// neither configuration always runs second.
	const rounds = 301
	for i := 0; i < 5; i++ { // warmup
		run(core.DefaultConfig())
		run(instrCfg)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ratios := make([]float64, rounds)
	for i := range ratios {
		var bare, instr time.Duration
		if i%2 == 0 {
			bare = run(core.DefaultConfig())
			instr = run(instrCfg)
		} else {
			instr = run(instrCfg)
			bare = run(core.DefaultConfig())
		}
		ratios[i] = float64(instr) / float64(bare)
	}
	sort.Float64s(ratios)

	overhead := (ratios[rounds/2] - 1) * 100
	t.Logf("ProfileStream median of %d paired ratios: overhead=%+.2f%% (quartiles %+.2f%% / %+.2f%%)",
		rounds, overhead, (ratios[rounds/4]-1)*100, (ratios[3*rounds/4]-1)*100)
	if overhead > 5 {
		t.Errorf("observability overhead %.2f%% exceeds the 5%% bound", overhead)
	}
}
