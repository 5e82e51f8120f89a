// Package shadow implements the sparse three-level lookup tables the paper
// uses for shadow memories (§4.1, "Implementation Details"): only chunks
// related to memory cells actually accessed need to be materialized, which
// keeps the per-thread shadow memories cheap for threads that touch little
// memory.
//
// The address space is split as
//
//	[ level-1: upper bits, hash map ][ level-2: midBits ][ level-3: lowBits ]
//
// Level 1 is a map so the full 64-bit address space is covered; levels 2 and
// 3 are dense arrays. The zero value of T is the default content of every
// cell; chunks are allocated on the first Run or Store into a region.
// Callers that handle a contiguous range of cells walk it one leaf chunk at
// a time with Run and PeekRun, paying one lookup per chunk, not per cell.
package shadow

import (
	"slices"

	"aprof/internal/trace"
)

const (
	lowBits  = 12 // cells per leaf chunk: 4096
	midBits  = 10 // leaf chunks per level-2 node: 1024
	lowSize  = 1 << lowBits
	midSize  = 1 << midBits
	lowMask  = lowSize - 1
	midMask  = midSize - 1
	topShift = lowBits + midBits
)

// leaf is a level-3 chunk of cell values.
type leaf[T any] struct {
	cells [lowSize]T
}

// node is a level-2 table of leaf chunks.
type node[T any] struct {
	leaves [midSize]*leaf[T]
}

// Table is a sparse map from trace.Addr to T with zero-valued default
// content and O(1) access.
type Table[T any] struct {
	top map[uint64]*node[T]
	// leafCount tracks materialized leaf chunks for space accounting.
	leafCount int
	// hint caches the most recently touched node to exploit locality.
	hintKey  uint64
	hintNode *node[T]
	// hintHits/hintLookups count node lookups served by the hint vs total,
	// for the observability layer: one lookup per chunk run (Run, PeekRun,
	// and the single-cell Load, Store and Slot), however many cells it
	// spans. Plain (non-atomic) fields: a Table is single-goroutine by
	// contract (see Slot), and keeping the hot path free of atomics means
	// the counters cost two register increments whether or not a metrics
	// registry is attached.
	hintHits    uint64
	hintLookups uint64
}

// New returns an empty table.
func New[T any]() *Table[T] {
	return &Table[T]{top: make(map[uint64]*node[T])}
}

// Load returns the value at addr, or the zero value if the cell was never
// stored to.
func (t *Table[T]) Load(addr trace.Addr) T {
	var zero T
	t.hintLookups++
	nd := t.hintNode
	if nd != nil && t.hintKey == uint64(addr)>>topShift {
		t.hintHits++
	} else if nd = t.topNode(addr); nd == nil {
		return zero
	}
	lf := nd.leaves[(uint64(addr)>>lowBits)&midMask]
	if lf == nil {
		return zero
	}
	return lf.cells[uint64(addr)&lowMask]
}

// Run returns the cells [addr, addr+n) as a slice into addr's leaf chunk,
// clipped to the end of that chunk (so its length is between 1 and n for
// n > 0), materializing the chunk as needed. Callers walk a longer range one
// run at a time, advancing addr by the returned length; addr arithmetic
// wraps at 2^64 like trace.Event.Cells does. The slice aliases the table
// and stays valid for the table's lifetime (chunks are never freed; Reset
// detaches them). n == 0 returns nil without materializing anything.
func (t *Table[T]) Run(addr trace.Addr, n uint32) []T {
	if n == 0 {
		return nil
	}
	t.hintLookups++
	var lf *leaf[T]
	if nd := t.hintNode; nd != nil && t.hintKey == uint64(addr)>>topShift {
		t.hintHits++
		lf = nd.leaves[(uint64(addr)>>lowBits)&midMask]
	}
	if lf == nil {
		lf = t.materialize(addr)
	}
	return runOf(lf, addr, n)
}

// PeekRun is Run without materializing: it returns nil when addr's leaf
// chunk does not exist, meaning every cell of the run reads as the zero
// value. Callers that need the run length in that case use the length of a
// Run over the same range — every table shares one chunk geometry.
func (t *Table[T]) PeekRun(addr trace.Addr, n uint32) []T {
	if n == 0 {
		return nil
	}
	t.hintLookups++
	nd := t.hintNode
	if nd != nil && t.hintKey == uint64(addr)>>topShift {
		t.hintHits++
	} else if nd = t.topNode(addr); nd == nil {
		return nil
	}
	lf := nd.leaves[(uint64(addr)>>lowBits)&midMask]
	if lf == nil {
		return nil
	}
	return runOf(lf, addr, n)
}

// runOf slices the run starting at addr out of its leaf: n cells, clipped to
// the leaf's end.
func runOf[T any](lf *leaf[T], addr trace.Addr, n uint32) []T {
	lo := uint64(addr) & lowMask
	end := lo + uint64(n)
	if end > lowSize {
		end = lowSize
	}
	return lf.cells[lo:end]
}

// Store sets the value at addr, materializing chunks as needed.
func (t *Table[T]) Store(addr trace.Addr, v T) {
	t.Run(addr, 1)[0] = v
}

// Slot returns a pointer to the cell at addr, materializing chunks as
// needed. The pointer is invalidated by nothing (chunks are never freed), so
// callers may retain it across calls within a single goroutine.
func (t *Table[T]) Slot(addr trace.Addr) *T {
	return &t.Run(addr, 1)[0]
}

// materialize is Run's slow path: the creation of a missing node or leaf
// past the hint. It counts no hint lookup (Run has), and stays out of line
// so Run's hinted path makes no call.
//
//go:noinline
func (t *Table[T]) materialize(addr trace.Addr) *leaf[T] {
	nd := t.topNode(addr)
	if nd == nil {
		key := uint64(addr) >> topShift
		nd = &node[T]{}
		t.top[key] = nd
		t.hintKey, t.hintNode = key, nd
	}
	li := (uint64(addr) >> lowBits) & midMask
	lf := nd.leaves[li]
	if lf == nil {
		lf = &leaf[T]{}
		nd.leaves[li] = lf
		t.leafCount++
	}
	return lf
}

// topNode is the level-1 map lookup behind the hint: it returns addr's node
// (nil if absent) and makes a present one the hint. It counts no hint
// lookup, and stays out of line so the hinted paths make no call.
//
//go:noinline
func (t *Table[T]) topNode(addr trace.Addr) *node[T] {
	key := uint64(addr) >> topShift
	nd := t.top[key]
	if nd != nil {
		t.hintKey, t.hintNode = key, nd
	}
	return nd
}

// LeafChunks returns the number of materialized level-3 chunks.
func (t *Table[T]) LeafChunks() int { return t.leafCount }

// HintStats returns how many node lookups were served by the locality hint
// and how many happened in total, for the observability layer's hint hit
// rate. A chunk run counts as one lookup, not one per cell. Both counters
// are monotonic over the table's lifetime (Reset clears them with the rest
// of the state).
func (t *Table[T]) HintStats() (hits, lookups uint64) { return t.hintHits, t.hintLookups }

// SizeBytes estimates the memory held by the table: materialized leaves plus
// level-2 pointer arrays, with elemSize the size of T in bytes.
func (t *Table[T]) SizeBytes(elemSize int) int64 {
	const ptrSize = 8
	leafBytes := int64(t.leafCount) * int64(lowSize) * int64(elemSize)
	nodeBytes := int64(len(t.top)) * int64(midSize) * ptrSize
	return leafBytes + nodeBytes
}

// ForEach calls fn for every cell in every materialized chunk whose value is
// non-zero according to isZero, in ascending address order: the level-1
// keys are sorted, then leaves and cells are walked in index order.
func (t *Table[T]) ForEach(isZero func(T) bool, fn func(trace.Addr, T)) {
	keys := make([]uint64, 0, len(t.top))
	for key := range t.top {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		n := t.top[key]
		base := key << topShift
		for li, lf := range n.leaves {
			if lf == nil {
				continue
			}
			chunkBase := base | uint64(li)<<lowBits
			for ci := range lf.cells {
				v := lf.cells[ci]
				if isZero(v) {
					continue
				}
				fn(trace.Addr(chunkBase|uint64(ci)), v)
			}
		}
	}
}

// UpdateAll rewrites every cell of every materialized chunk through fn.
// Cells never stored to are not visited (their chunks do not exist).
func (t *Table[T]) UpdateAll(fn func(T) T) {
	for _, n := range t.top {
		for _, lf := range n.leaves {
			if lf == nil {
				continue
			}
			for ci := range lf.cells {
				lf.cells[ci] = fn(lf.cells[ci])
			}
		}
	}
}

// Reset drops all chunks, returning the table to its empty state.
func (t *Table[T]) Reset() {
	t.top = make(map[uint64]*node[T])
	t.leafCount = 0
	t.hintNode = nil
	t.hintKey = 0
	t.hintHits = 0
	t.hintLookups = 0
}
