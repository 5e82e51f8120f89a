package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aprof/internal/trace"
)

// randomTrace generates a random multi-threaded trace with kernel I/O,
// nested calls and shared addresses — the adversarial input for the
// differential tests.
func randomTrace(rng *rand.Rand, events int) *trace.Trace {
	const addrSpace = 24
	return randomTraceOver(rng, events, func(rng *rand.Rand) (trace.Addr, uint32) {
		return trace.Addr(rng.Intn(addrSpace)), uint32(1 + rng.Intn(3))
	})
}

// wideRandomTrace is randomTrace over ranges that cross the shadow tables'
// chunk geometry: each access starts near a 4096-cell leaf edge, a 2^22-cell
// node edge or the top of the address space (wrapping to 0), is up to 96
// cells wide, and now and then spans whole leaves.
func wideRandomTrace(rng *rand.Rand, events int) *trace.Trace {
	anchors := []trace.Addr{1 << 12, 1 << 22, 0}
	return randomTraceOver(rng, events, func(rng *rand.Rand) (trace.Addr, uint32) {
		addr := anchors[rng.Intn(len(anchors))] + trace.Addr(rng.Intn(64)) - 32
		size := uint32(1 + rng.Intn(96))
		if rng.Intn(32) == 0 {
			size = uint32(1 + rng.Intn(2<<12))
		}
		return addr, size
	})
}

// randomTraceOver generates the random trace, drawing each memory access's
// range from pick.
func randomTraceOver(rng *rand.Rand, events int, pick func(*rand.Rand) (trace.Addr, uint32)) *trace.Trace {
	b := trace.NewBuilder()
	numThreads := 1 + rng.Intn(4)
	type tstate struct {
		tb    *trace.ThreadBuilder
		depth int
	}
	threads := make([]*tstate, numThreads)
	for i := range threads {
		threads[i] = &tstate{tb: b.Thread(trace.ThreadID(i + 1))}
	}
	routines := []string{"main", "f", "g", "h", "leaf", "worker"}
	for i := 0; i < events; i++ {
		t := threads[rng.Intn(numThreads)]
		addr, size := pick(rng)
		switch op := rng.Intn(10); {
		case op < 2: // call
			if t.depth < 6 {
				t.tb.Call(routines[rng.Intn(len(routines))])
				t.depth++
			}
		case op < 3: // return
			if t.depth > 0 {
				t.tb.Ret()
				t.depth--
			}
		case op < 6: // read
			t.tb.Read(addr, size)
		case op < 8: // write
			t.tb.Write(addr, size)
		case op < 9: // kernel fills buffer
			t.tb.SysRead(addr, size)
		default: // kernel drains buffer
			t.tb.SysWrite(addr, size)
		}
		if rng.Intn(20) == 0 {
			t.tb.Work(uint64(rng.Intn(50)))
		}
	}
	return b.Trace()
}

// profileSummary flattens a Profiles value for comparison.
type profileSummary struct {
	Key             Key
	Calls           uint64
	SumRMS          uint64
	SumDRMS         uint64
	FirstReads      uint64
	InducedThread   uint64
	InducedExternal uint64
	DRMSPoints      string
	RMSPoints       string
}

func summarize(ps *Profiles) []profileSummary {
	out := make([]profileSummary, 0, len(ps.ByKey))
	for k, p := range ps.ByKey {
		out = append(out, profileSummary{
			Key:             k,
			Calls:           p.Calls,
			SumRMS:          p.SumRMS,
			SumDRMS:         p.SumDRMS,
			FirstReads:      p.FirstReads,
			InducedThread:   p.InducedThread,
			InducedExternal: p.InducedExternal,
			DRMSPoints:      pointsString(p.DRMSPoints),
			RMSPoints:       pointsString(p.RMSPoints),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Routine != out[j].Key.Routine {
			return out[i].Key.Routine < out[j].Key.Routine
		}
		return out[i].Key.Thread < out[j].Key.Thread
	})
	return out
}

func pointsString(points map[uint64]*CostStats) string {
	type kv struct {
		n  uint64
		st CostStats
	}
	flat := make([]kv, 0, len(points))
	for n, st := range points {
		flat = append(flat, kv{n, *st})
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].n < flat[j].n })
	s := ""
	for _, e := range flat {
		s += fmt.Sprintf("(%d:n=%d max=%d min=%d sum=%d)", e.n, e.st.Count, e.st.Max, e.st.Min, e.st.Sum)
	}
	return s
}

var allConfigs = []struct {
	name string
	cfg  Config
}{
	{"full", Config{ThreadInput: true, ExternalInput: true}},
	{"thread-only", Config{ThreadInput: true}},
	{"external-only", Config{ExternalInput: true}},
	{"rms-only", Config{}},
}

// handoffTrace builds the smallest trace whose profile depends on
// cross-thread write resolution: thread 1 writes a cell, thread 2 first-reads
// it, and one read covers a thread-induced and a kernel-induced cell at once.
func handoffTrace() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("writer")
	t2.Call("reader")
	t1.Write1(7)     // cross-thread communication target
	t2.Read1(7)      // induced first-read from thread 1's write
	t1.SysRead(9, 2) // kernel fill ...
	t1.Write1(9)     // ... immediately overwritten by the same thread
	t2.Read(9, 2)    // cell 9: thread-induced; cell 10: kernel-induced
	t2.Write1(7)     // write back the other way
	t1.Read1(7)      // induced first-read from thread 2
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// sameCountWritesTrace builds a trace where a kernel write and a thread write
// to the same cell occur under the same global counter value (no counter
// tick between them): the later one by trace position decides the reader's
// attribution.
func sameCountWritesTrace() *trace.Trace {
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Call("producer")
	t2.Call("consumer")
	t1.SysRead(5, 1) // kernel writes cell 5
	t1.Write1(5)     // thread overwrites it; counter unchanged in between
	t2.Read1(5)      // must be thread-induced, not kernel-induced
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// deepStacksTrace builds three threads with six-deep stacks whose frames all
// write, then read the cell another thread wrote while unwinding. Run with
// Limits.MaxDepth below 6 it exercises depth capping on every thread.
func deepStacksTrace() *trace.Trace {
	b := trace.NewBuilder()
	for id := trace.ThreadID(1); id <= 3; id++ {
		tb := b.Thread(id)
		for d := 0; d < 6; d++ {
			tb.Call("f")
			tb.Write1(trace.Addr(id))
		}
		for d := 0; d < 6; d++ {
			tb.Read1(trace.Addr(id%3 + 1))
			tb.Ret()
		}
	}
	return b.Trace()
}

// wideRangeTrace builds accesses that cross the shadow tables' chunk
// geometry: ranges straddling a 4096-cell leaf edge and a 2^22-cell node
// edge, a range wrapping past 2^64 to 0, reads of cells whose write-shadow
// chunk was never materialized, partial cross-thread overlaps, and kernel
// fills and userToKernel reads spanning chunks. Alternate-cell writes under
// a nested call make the old timestamps — and so the discharged ancestor —
// change from one cell to the next within a single read.
func wideRangeTrace() *trace.Trace {
	const leaf, node = 1 << 12, 1 << 22
	top := trace.Addr(1<<64 - 3) // the last three cells of the address space
	b := trace.NewBuilder()
	t1, t2 := b.Thread(1), b.Thread(2)
	t1.Read(leaf-2, 4) // outside any activation: only ts_1 moves
	t1.Call("main")
	t2.Call("worker")
	t1.Read(leaf-8, 16) // no write-shadow chunk exists anywhere yet
	t1.Call("f")
	for a := trace.Addr(leaf - 8); a < leaf+8; a += 2 {
		t1.Write1(a)
	}
	t1.Call("g")
	t1.Read(leaf-10, 20)   // discharges main and f by turns
	t2.Read(leaf-6, 12)    // partial overlap with t1's writes
	t2.SysRead(node-5, 10) // kernel fill across the node edge
	t1.Read(node-8, 6)     // part kernel-filled, part never written
	t2.Read(node-7, 16)
	t1.Read(3*leaf, 8) // write chunk absent in a node that exists
	t2.Write(top, 6)   // wraps past 2^64 to cells 0..2
	t1.Read(top-1, 6)
	t1.SysRead(top, 4)
	t2.SysWrite(top-leaf, leaf+8) // userToKernel read across the wrap
	t1.Ret()
	t1.Read(leaf-10, 20)
	t1.Ret()
	t2.Write(leaf-4, leaf+8)       // thread write across two leaf edges
	t1.SysRead(2*leaf-1, 2*leaf+2) // kernel fill over four chunks
	t1.Read(leaf-10, 3*leaf+20)
	t2.Read(0, 4*leaf)
	t1.Ret()
	t2.Ret()
	return b.Trace()
}

// checkSplitsAgainst profiles tr under cfg split at every event through a
// checkpoint and a resume, comparing each run with want.
func checkSplitsAgainst(t *testing.T, label string, tr *trace.Trace, cfg Config, want *Profiles) {
	t.Helper()
	ws := summarize(want)
	for split := 1; split < len(tr.Events); split++ {
		if got := summarize(runSplit(t, tr, cfg, split)); !reflect.DeepEqual(got, ws) {
			t.Fatalf("%s: split=%d: diverges\nwant: %+v\ngot:  %+v", label, split, ws, got)
		}
	}
}

// TestDifferentialAgainstNaive cross-checks the timestamping algorithm
// against the set-based oracle on random traces and the crafted traces
// above, for every input-source configuration.
func TestDifferentialAgainstNaive(t *testing.T) {
	crafted := []struct {
		name string
		tr   *trace.Trace
	}{
		{"handoff", handoffTrace()},
		{"same-count-writes", sameCountWritesTrace()},
		{"deep-stacks", deepStacksTrace()},
	}
	for _, tc := range allConfigs {
		t.Run(tc.name, func(t *testing.T) {
			check := func(label string, tr *trace.Trace) {
				t.Helper()
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: invalid trace: %v", label, err)
				}
				fast, err := Run(tr, tc.cfg)
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				slow, err := RunNaive(tr, tc.cfg)
				if err != nil {
					t.Fatalf("%s: RunNaive: %v", label, err)
				}
				fs, ss := summarize(fast), summarize(slow)
				if !reflect.DeepEqual(fs, ss) {
					t.Fatalf("%s: profiles diverge\nfast: %+v\nnaive: %+v", label, fs, ss)
				}
			}
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				check(fmt.Sprintf("seed %d", seed), randomTrace(rng, 200+rng.Intn(600)))
			}
			for _, c := range crafted {
				check(c.name, c.tr)
			}
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(500 + seed))
				check(fmt.Sprintf("wide seed %d", seed), wideRandomTrace(rng, 150+rng.Intn(150)))
			}
			wide := wideRangeTrace()
			check("wide-range", wide)
			naive, err := RunNaive(wide, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSplitsAgainst(t, "wide-range", wide, tc.cfg, naive)
		})
	}
}

// TestDifferentialWithRenumbering repeats the differential test with a tiny
// counter limit so that the run performs many renumberings; results must be
// identical to the oracle (which has no counter at all).
func TestDifferentialWithRenumbering(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		tr := randomTrace(rng, 2000)
		cfg := DefaultConfig()
		// Large enough for the live timestamps of the random traces (a few
		// threads over a 24-cell address space), small enough that each run
		// renumbers several times.
		cfg.CounterLimit = 300
		fast, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if fast.Renumberings == 0 {
			t.Fatalf("seed %d: expected renumberings with limit 64", seed)
		}
		slow, err := RunNaive(tr, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: RunNaive: %v", seed, err)
		}
		fs, ss := summarize(fast), summarize(slow)
		if !reflect.DeepEqual(fs, ss) {
			t.Fatalf("seed %d: renumbered run diverges from oracle\nfast: %+v\nnaive: %+v", seed, fs, ss)
		}
	}
	// The wide ranges renumber chunk runs whose cells hold many distinct
	// timestamps, and a resume must carry the renumbered state. Each limit
	// is just above the trace's live timestamps.
	type wideCase struct {
		name  string
		tr    *trace.Trace
		limit uint64
	}
	wide := []wideCase{{"wide-range", wideRangeTrace(), 20}}
	for seed := int64(1); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		wide = append(wide, wideCase{fmt.Sprintf("wide seed %d", seed), wideRandomTrace(rng, 1000), 128})
	}
	for i, w := range wide {
		cfg := DefaultConfig()
		cfg.CounterLimit = w.limit
		fast, err := Run(w.tr, cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", w.name, err)
		}
		if fast.Renumberings == 0 {
			t.Fatalf("%s: expected renumberings with limit %d", w.name, w.limit)
		}
		slow, err := RunNaive(w.tr, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: RunNaive: %v", w.name, err)
		}
		if fs, ss := summarize(fast), summarize(slow); !reflect.DeepEqual(fs, ss) {
			t.Fatalf("%s: renumbered run diverges from oracle\nfast: %+v\nnaive: %+v", w.name, fs, ss)
		}
		if i == 0 {
			checkSplitsAgainst(t, w.name+" renumbered", w.tr, cfg, slow)
		}
	}
}

// TestRenumberingLimitTooSmall verifies that an impossible counter limit is
// reported as an error instead of corrupting timestamps.
func TestRenumberingLimitTooSmall(t *testing.T) {
	b := trace.NewBuilder()
	tb := b.Thread(1)
	// 10 nested pending activations hold 10 live stack timestamps; a limit
	// of 4 cannot accommodate them.
	for i := 0; i < 10; i++ {
		tb.Call("f")
		tb.Write1(trace.Addr(uint64(i)))
		tb.Read1(trace.Addr(uint64(i)))
	}
	tr := b.Trace()
	// Drop the dangling returns so the stack stays deep during the run.
	var kept []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindReturn {
			continue
		}
		kept = append(kept, ev)
	}
	tr.Events = kept

	cfg := DefaultConfig()
	cfg.CounterLimit = 4
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("expected an error for counter limit smaller than live timestamps")
	}
}

// TestPerActivationParity compares the exact sequence of collected
// activations between the two implementations.
func TestPerActivationParity(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		tr := randomTrace(rng, 500)

		var fastRecs, slowRecs []ActivationRecord
		cfgFast := DefaultConfig()
		cfgFast.OnActivation = func(r ActivationRecord) { fastRecs = append(fastRecs, r) }
		if _, err := Run(tr, cfgFast); err != nil {
			t.Fatal(err)
		}
		cfgSlow := DefaultConfig()
		cfgSlow.OnActivation = func(r ActivationRecord) { slowRecs = append(slowRecs, r) }
		if _, err := RunNaive(tr, cfgSlow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fastRecs, slowRecs) {
			t.Fatalf("seed %d: activation streams diverge (%d vs %d records)", seed, len(fastRecs), len(slowRecs))
		}
		for _, r := range fastRecs {
			if r.DRMS < r.RMS {
				t.Errorf("seed %d: drms %d < rms %d", seed, r.DRMS, r.RMS)
			}
		}
	}
}

// TestMonotoneConfigs checks that enabling more input sources never
// decreases any activation's drms (config monotonicity).
func TestMonotoneConfigs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		tr := randomTrace(rng, 400)
		drmsOf := func(cfg Config) []uint64 {
			var out []uint64
			cfg.OnActivation = func(r ActivationRecord) { out = append(out, r.DRMS) }
			if _, err := Run(tr, cfg); err != nil {
				t.Fatal(err)
			}
			return out
		}
		full := drmsOf(Config{ThreadInput: true, ExternalInput: true})
		threadOnly := drmsOf(Config{ThreadInput: true})
		extOnly := drmsOf(Config{ExternalInput: true})
		none := drmsOf(Config{})
		if len(full) != len(none) || len(threadOnly) != len(extOnly) {
			t.Fatalf("seed %d: activation count mismatch across configs", seed)
		}
		for i := range full {
			if threadOnly[i] > full[i] || extOnly[i] > full[i] || none[i] > threadOnly[i] || none[i] > extOnly[i] {
				t.Errorf("seed %d: activation %d: non-monotone drms: none=%d thread=%d ext=%d full=%d",
					seed, i, none[i], threadOnly[i], extOnly[i], full[i])
			}
		}
	}
}
