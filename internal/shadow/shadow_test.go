package shadow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aprof/internal/trace"
)

func TestLoadDefaultZero(t *testing.T) {
	m := New[uint64]()
	if got := m.Load(12345); got != 0 {
		t.Errorf("Load of untouched cell = %d, want 0", got)
	}
	if m.LeafChunks() != 0 {
		t.Error("Load materialized a chunk")
	}
}

func TestStoreLoad(t *testing.T) {
	m := New[uint64]()
	addrs := []trace.Addr{0, 1, lowSize - 1, lowSize, lowSize * midSize, 1 << 40, 1<<63 + 17}
	for i, a := range addrs {
		m.Store(a, uint64(i)+100)
	}
	for i, a := range addrs {
		if got := m.Load(a); got != uint64(i)+100 {
			t.Errorf("Load(%d) = %d, want %d", a, got, uint64(i)+100)
		}
	}
}

func TestSlotAliasesStore(t *testing.T) {
	m := New[uint64]()
	slot := m.Slot(77)
	*slot = 5
	if got := m.Load(77); got != 5 {
		t.Errorf("Load = %d, want 5", got)
	}
	m.Store(77, 9)
	if *slot != 9 {
		t.Errorf("slot sees %d, want 9", *slot)
	}
}

func TestAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[uint64]()
	oracle := make(map[trace.Addr]uint64)
	// Clustered addresses exercise chunk sharing; sparse ones exercise the
	// top-level map.
	for i := 0; i < 20000; i++ {
		var a trace.Addr
		if rng.Intn(2) == 0 {
			a = trace.Addr(rng.Intn(10000))
		} else {
			a = trace.Addr(rng.Uint64())
		}
		if rng.Intn(3) == 0 {
			if got, want := m.Load(a), oracle[a]; got != want {
				t.Fatalf("Load(%d) = %d, want %d", a, got, want)
			}
		} else {
			v := rng.Uint64()
			m.Store(a, v)
			oracle[a] = v
		}
	}
	for a, want := range oracle {
		if got := m.Load(a); got != want {
			t.Fatalf("final Load(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestForEachVisitsExactlyNonZero(t *testing.T) {
	m := New[uint64]()
	want := map[trace.Addr]uint64{
		3:       1,
		4096:    2,
		1 << 30: 3,
		1 << 50: 4,
	}
	for a, v := range want {
		m.Store(a, v)
	}
	m.Store(99, 5)
	m.Store(99, 0) // explicitly zeroed: must not be visited
	got := make(map[trace.Addr]uint64)
	m.ForEach(func(v uint64) bool { return v == 0 }, func(a trace.Addr, v uint64) {
		got[a] = v
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d cells, want %d: %v", len(got), len(want), got)
	}
	for a, v := range want {
		if got[a] != v {
			t.Errorf("ForEach got[%d] = %d, want %d", a, got[a], v)
		}
	}
}

func TestUpdateAll(t *testing.T) {
	m := New[uint64]()
	m.Store(1, 10)
	m.Store(2, 20)
	m.Store(1<<40, 30)
	m.UpdateAll(func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		return v / 10
	})
	for a, want := range map[trace.Addr]uint64{1: 1, 2: 2, 1 << 40: 3, 7: 0} {
		if got := m.Load(a); got != want {
			t.Errorf("after UpdateAll, Load(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestSpaceAccounting(t *testing.T) {
	m := New[uint8]()
	if m.SizeBytes(1) != 0 {
		t.Error("empty table reports non-zero size")
	}
	m.Store(0, 1)
	one := m.SizeBytes(1)
	if one <= 0 {
		t.Error("non-empty table reports non-positive size")
	}
	m.Store(1, 1) // same chunk
	if got := m.SizeBytes(1); got != one {
		t.Errorf("same-chunk store changed size: %d -> %d", one, got)
	}
	m.Store(1<<40, 1) // new top-level region and chunk
	if got := m.SizeBytes(1); got <= one {
		t.Errorf("new chunk did not grow size: %d -> %d", one, got)
	}
	if m.LeafChunks() != 2 {
		t.Errorf("LeafChunks = %d, want 2", m.LeafChunks())
	}
}

func TestReset(t *testing.T) {
	m := New[uint64]()
	m.Store(5, 5)
	m.Reset()
	if m.Load(5) != 0 || m.LeafChunks() != 0 {
		t.Error("Reset did not clear the table")
	}
	m.Store(5, 7)
	if m.Load(5) != 7 {
		t.Error("table unusable after Reset")
	}
}

// TestQuickStoreLoad is a property test: a Store followed by a Load of the
// same address returns the stored value, and a Load of a different address
// in a fresh table returns zero.
func TestQuickStoreLoad(t *testing.T) {
	f := func(a trace.Addr, v uint64, other trace.Addr) bool {
		m := New[uint64]()
		m.Store(a, v)
		if m.Load(a) != v {
			return false
		}
		if other != a && m.Load(other) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreDense(b *testing.B) {
	m := New[uint64]()
	for i := 0; i < b.N; i++ {
		m.Store(trace.Addr(i&0xffff), uint64(i))
	}
}

func BenchmarkLoadDense(b *testing.B) {
	m := New[uint64]()
	for i := 0; i < 1<<16; i++ {
		m.Store(trace.Addr(i), uint64(i))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Load(trace.Addr(i & 0xffff))
	}
	_ = sink
}

// TestHintStats checks the locality-hint accounting feeding the
// observability layer: same-node accesses hit the hint, a node switch
// misses it, and Reset clears the counters.
func TestHintStats(t *testing.T) {
	m := New[uint64]()
	if hits, lookups := m.HintStats(); hits != 0 || lookups != 0 {
		t.Fatalf("fresh table: hits=%d lookups=%d", hits, lookups)
	}
	// First access materializes the node (miss); the next two share it.
	m.Store(1, 1)
	m.Store(2, 2)
	m.Load(1)
	hits, lookups := m.HintStats()
	if lookups != 3 {
		t.Errorf("lookups = %d, want 3", lookups)
	}
	if hits != 2 {
		t.Errorf("hits = %d, want 2 (same-node accesses)", hits)
	}
	// Jumping to a distant node must miss the hint.
	far := trace.Addr(1) << 40
	m.Store(far, 9)
	if h2, l2 := m.HintStats(); l2 != 4 || h2 != 2 {
		t.Errorf("after node switch: hits=%d lookups=%d, want 2/4", h2, l2)
	}
	// Hits never exceed lookups, and Reset clears both.
	m.Reset()
	if h3, l3 := m.HintStats(); h3 != 0 || l3 != 0 {
		t.Errorf("after Reset: hits=%d lookups=%d", h3, l3)
	}
}

// walkRuns covers [addr, addr+n) with Run the way the profiler does,
// returning each run's start address and length.
func walkRuns(m *Table[uint64], addr trace.Addr, n uint32) (starts []trace.Addr, lens []int) {
	for n > 0 {
		run := m.Run(addr, n)
		starts, lens = append(starts, addr), append(lens, len(run))
		addr, n = addr+trace.Addr(len(run)), n-uint32(len(run))
	}
	return starts, lens
}

// TestRunClipsAtChunkEdges checks that a run ends at its leaf's last cell,
// both inside a node and at the node boundary (2^22 cells), and that the
// slice aliases the cells Load and Store see.
func TestRunClipsAtChunkEdges(t *testing.T) {
	const node = lowSize * midSize
	cases := []struct {
		name   string
		addr   trace.Addr
		n      uint32
		starts []trace.Addr
		lens   []int
	}{
		{"inside leaf", 10, 20, []trace.Addr{10}, []int{20}},
		{"ends at leaf edge", lowSize - 5, 5, []trace.Addr{lowSize - 5}, []int{5}},
		{"straddles leaf", lowSize - 3, 10, []trace.Addr{lowSize - 3, lowSize}, []int{3, 7}},
		{"straddles node", node - 2, 6, []trace.Addr{node - 2, node}, []int{2, 4}},
		{"spans three leaves", lowSize - 1, lowSize + 2, []trace.Addr{lowSize - 1, lowSize, 2 * lowSize}, []int{1, lowSize, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New[uint64]()
			starts, lens := walkRuns(m, tc.addr, tc.n)
			if !reflect.DeepEqual(starts, tc.starts) || !reflect.DeepEqual(lens, tc.lens) {
				t.Fatalf("runs start %v len %v, want %v / %v", starts, lens, tc.starts, tc.lens)
			}
			if m.LeafChunks() != len(tc.lens) {
				t.Errorf("LeafChunks = %d, want one per run (%d)", m.LeafChunks(), len(tc.lens))
			}
			for i, a := range starts {
				run := m.Run(a, uint32(lens[i]))
				run[len(run)-1] = uint64(i) + 1
				if got := m.Load(a + trace.Addr(len(run)-1)); got != uint64(i)+1 {
					t.Errorf("run %d: Load of last cell = %d, want %d", i, got, i+1)
				}
				m.Store(a, 99)
				if run[0] != 99 {
					t.Errorf("run %d does not alias Store", i)
				}
			}
		})
	}
}

// TestRunSizes pins the degenerate and full-chunk lengths: n = 1, n = 4096
// from a leaf start (one run) and from mid-leaf (two runs), and n = 0.
func TestRunSizes(t *testing.T) {
	m := New[uint64]()
	if run := m.Run(lowSize+7, 1); len(run) != 1 {
		t.Errorf("Run(n=1) has length %d", len(run))
	}
	if run := m.Run(3*lowSize, lowSize); len(run) != lowSize {
		t.Errorf("aligned Run(n=4096) has length %d, want 4096", len(run))
	}
	if _, lens := walkRuns(m, 5*lowSize+100, lowSize); !reflect.DeepEqual(lens, []int{lowSize - 100, 100}) {
		t.Errorf("unaligned 4096-cell range runs = %v", lens)
	}
	before := m.LeafChunks()
	if run := m.Run(1<<40, 0); run != nil {
		t.Errorf("Run(n=0) = %v, want nil", run)
	}
	if m.LeafChunks() != before {
		t.Error("Run(n=0) materialized a chunk")
	}
}

// TestRunWrapsAt2to64 checks that a range crossing the top of the address
// space continues at address 0, as trace.Event.Cells does.
func TestRunWrapsAt2to64(t *testing.T) {
	m := New[uint64]()
	top := trace.Addr(1<<64 - 2)
	starts, lens := walkRuns(m, top, 5)
	if !reflect.DeepEqual(starts, []trace.Addr{top, 0}) || !reflect.DeepEqual(lens, []int{2, 3}) {
		t.Fatalf("runs start %v len %v, want [%d 0] / [2 3]", starts, lens, top)
	}
	var cells []trace.Addr
	trace.Event{Kind: trace.KindWrite, Addr: top, Size: 5}.Cells(func(a trace.Addr) { cells = append(cells, a) })
	for i, a := range cells {
		m.Store(a, uint64(i)+1)
	}
	if got := m.PeekRun(top, 5); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("PeekRun at 2^64-2 = %v, want [1 2]", got)
	}
	if got := m.PeekRun(0, 3); !reflect.DeepEqual(got, []uint64{3, 4, 5}) {
		t.Errorf("PeekRun at 0 = %v, want [3 4 5]", got)
	}
}

// TestPeekRunNeverMaterializes checks that PeekRun returns nil for absent
// chunks — in an absent node and in a present node — without creating any,
// and sees the same cells as Run once the chunk exists.
func TestPeekRunNeverMaterializes(t *testing.T) {
	m := New[uint64]()
	if run := m.PeekRun(100, 10); run != nil {
		t.Errorf("PeekRun in an empty table = %v, want nil", run)
	}
	m.Store(0, 1) // materializes node 0 and its first leaf only
	if run := m.PeekRun(lowSize+5, 10); run != nil {
		t.Errorf("PeekRun of an absent leaf in a present node = %v, want nil", run)
	}
	if run := m.PeekRun(1<<40, lowSize); run != nil {
		t.Errorf("PeekRun of an absent node = %v, want nil", run)
	}
	if m.LeafChunks() != 1 {
		t.Fatalf("PeekRun materialized chunks: LeafChunks = %d, want 1", m.LeafChunks())
	}
	if run := m.PeekRun(lowSize-2, 9); !reflect.DeepEqual(run, []uint64{0, 0}) {
		t.Errorf("PeekRun of a present leaf = %v, want [0 0] clipped at the leaf edge", run)
	}
	if run := m.PeekRun(0, 0); run != nil {
		t.Errorf("PeekRun(n=0) = %v, want nil", run)
	}
	if m.LeafChunks() != 1 {
		t.Errorf("LeafChunks = %d after PeekRuns, want 1", m.LeafChunks())
	}
}

// TestRunHintAccounting checks that a chunk run is one node lookup however
// many cells it covers.
func TestRunHintAccounting(t *testing.T) {
	m := New[uint64]()
	m.Run(0, lowSize)
	m.PeekRun(0, lowSize)
	if hits, lookups := m.HintStats(); lookups != 2 || hits != 1 {
		t.Errorf("hits=%d lookups=%d, want 1/2", hits, lookups)
	}
}

// TestForEachAscending checks that ForEach yields strictly ascending
// addresses across several level-1 nodes, whatever the map order.
func TestForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New[uint64]()
	want := 0
	for i := 0; i < 2000; i++ {
		// A handful of nodes far apart, plus cells near the top of the
		// address space and near node edges.
		node := uint64(rng.Intn(8)) * 1 << 37
		if i%7 == 0 {
			node = 1<<64 - lowSize*midSize
		}
		a := trace.Addr(node + uint64(rng.Intn(3*lowSize*midSize/2)))
		if m.Load(a) == 0 {
			want++
		}
		m.Store(a, uint64(i)+1)
	}
	var prev trace.Addr
	got := 0
	m.ForEach(func(v uint64) bool { return v == 0 }, func(a trace.Addr, _ uint64) {
		if got > 0 && a <= prev {
			t.Fatalf("ForEach visited %#x after %#x", a, prev)
		}
		prev = a
		got++
	})
	if got != want {
		t.Errorf("ForEach visited %d cells, want %d", got, want)
	}
}
