package core

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"aprof/internal/trace"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// O(log d) binary search for the deepest ancestor (vs the linear scan a
// naive implementation would use), and the profiler with/without the global
// write-timestamp machinery (the paper's "recognizing induced first-reads
// causes an average overhead of 29%").

// linearDeepestAncestor is the O(d) alternative to deepestAncestor.
func linearDeepestAncestor(stack []frame, ts uint64) (int, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].ts <= ts {
			return i, true
		}
	}
	return 0, false
}

func ancestorFixture(depth int) ([]frame, []uint64) {
	stack := make([]frame, depth)
	for i := range stack {
		stack[i].ts = uint64(i*7 + 1)
	}
	rng := rand.New(rand.NewSource(3))
	queries := make([]uint64, 4096)
	for i := range queries {
		queries[i] = uint64(rng.Intn(depth*7 + 2))
	}
	return stack, queries
}

func TestLinearAncestorMatchesBinary(t *testing.T) {
	for _, depth := range []int{1, 2, 5, 64, 300} {
		stack, queries := ancestorFixture(depth)
		for _, q := range queries {
			bi, bok := deepestAncestor(stack, q)
			li, lok := linearDeepestAncestor(stack, q)
			if bok != lok || (bok && bi != li) {
				t.Fatalf("depth %d query %d: binary (%d,%v) vs linear (%d,%v)", depth, q, bi, bok, li, lok)
			}
		}
	}
}

func benchAncestor(b *testing.B, depth int, search func([]frame, uint64) (int, bool)) {
	stack, queries := ancestorFixture(depth)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		idx, _ := search(stack, queries[i%len(queries)])
		sink += idx
	}
	_ = sink
}

func BenchmarkDeepestAncestorBinaryD16(b *testing.B)  { benchAncestor(b, 16, deepestAncestor) }
func BenchmarkDeepestAncestorLinearD16(b *testing.B)  { benchAncestor(b, 16, linearDeepestAncestor) }
func BenchmarkDeepestAncestorBinaryD256(b *testing.B) { benchAncestor(b, 256, deepestAncestor) }
func BenchmarkDeepestAncestorLinearD256(b *testing.B) {
	benchAncestor(b, 256, linearDeepestAncestor)
}

// deepRecursionTrace produces a trace whose call stacks are deep and whose
// reads hit ancestors uniformly — the workload where the ancestor search
// dominates.
func deepRecursionTrace(depth, reads int) *trace.Trace {
	b := trace.NewBuilder()
	tb := b.Thread(1)
	rng := rand.New(rand.NewSource(11))
	for d := 0; d < depth; d++ {
		tb.Call("recurse")
		tb.Read1(trace.Addr(uint64(d)))
	}
	for i := 0; i < reads; i++ {
		tb.Read1(trace.Addr(uint64(rng.Intn(depth))))
	}
	for d := 0; d < depth; d++ {
		tb.Ret()
	}
	return b.Trace()
}

func BenchmarkProfilerDeepStacks(b *testing.B) {
	tr := deepRecursionTrace(512, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeepStacksCorrect sanity-checks the deep-stack fixture: every read of
// an ancestor's cell discharges the right frame, so the root's drms equals
// the number of distinct cells.
func TestDeepStacksCorrect(t *testing.T) {
	const depth = 64
	tr := deepRecursionTrace(depth, 5000)
	ps, err := Run(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := ps.Routine("recurse")
	if rec == nil {
		t.Fatal("no recurse profile")
	}
	// The outermost activation sees every distinct cell exactly once.
	plot := rec.WorstCasePlot(MetricDRMS)
	maxDRMS := plot[len(plot)-1].N
	if maxDRMS != depth {
		t.Errorf("outermost drms = %d, want %d", maxDRMS, depth)
	}
	// Cross-check with the oracle.
	slow, err := RunNaive(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(plot, func(i, j int) bool { return plot[i].N < plot[j].N })
	slowPlot := slow.Routine("recurse").WorstCasePlot(MetricDRMS)
	if len(plot) != len(slowPlot) {
		t.Fatalf("plot sizes diverge: %d vs %d", len(plot), len(slowPlot))
	}
	for i := range plot {
		if plot[i] != slowPlot[i] {
			t.Fatalf("plots diverge at %d: %+v vs %+v", i, plot[i], slowPlot[i])
		}
	}
}

// accessWidthTrace moves a fixed number of cells through memory in events
// of width cells each: every round a producer thread writes a buffer, and a
// consumer thread reads it back, has the kernel fill an input buffer and
// reads that too — the shape of the suite analogues' communication and I/O
// routines. It returns the trace and the number of cells its memory events
// cover. The buffers start off a leaf edge, so wide events straddle chunks.
func accessWidthTrace(width int) (*trace.Trace, int) {
	const (
		rounds = 4
		buf    = 1 << 14
		base   = trace.Addr(3)
		input  = base + 2*buf
	)
	b := trace.NewBuilder()
	prod, cons := b.Thread(1), b.Thread(2)
	cells := 0
	each := func(n int, op func(trace.Addr, uint32)) {
		for off := 0; off < n; off += width {
			op(trace.Addr(off), uint32(width))
			cells += width
		}
	}
	for r := 0; r < rounds; r++ {
		prod.Call("produce")
		each(buf, func(off trace.Addr, w uint32) { prod.Write(base+off, w) })
		prod.Ret()
		cons.Call("consume")
		each(buf, func(off trace.Addr, w uint32) { cons.Read(base+off, w) })
		each(buf/2, func(off trace.Addr, w uint32) { cons.SysRead(input+off, w) })
		each(buf/2, func(off trace.Addr, w uint32) { cons.Read(input+off, w) })
		cons.Ret()
	}
	return b.Trace(), cells
}

// BenchmarkProfilerAccessWidth is the access-width half of the per-event
// cost sweep: the same cells profiled in events of 1 to 4096 cells. ns/cell
// falling with width is the per-event overhead amortized over each chunk
// run; width 1 is the VM-style traffic, where that overhead is all there is.
func BenchmarkProfilerAccessWidth(b *testing.B) {
	for _, width := range []int{1, 8, 64, 512, 4096} {
		b.Run(strconv.Itoa(width), func(b *testing.B) {
			tr, cells := accessWidthTrace(width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
		})
	}
}
