package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span levels decide which layer a moment of an operation is charged to
// when spans overlap: the highest level active at that moment wins. An
// operation (level opLevel) is charged only for moments no layer span
// covers. Client-side spans sit below node-side spans, so time the client
// spends blocked on the socket while a node replicates or saves is charged
// to the node's layer, where the work happens.
const (
	opLevel     = 0
	clientLevel = 1
	nodeLevel   = 2
	storeLevel  = 3
)

// span is one recorded interval.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Loop    string `json:"loop"`
	Level   int    `json:"level"`
	Session string `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the whole run. A nil recorder records
// nothing, so the same wrappers compile away to plain calls when untraced.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records [start, end) under loop. Parents are assigned when the run
// ends, from time containment within the loop.
func (r *recorder) add(name, loop string, level int, session string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID:      int64(len(r.spans) + 1),
		Name:    name,
		Loop:    loop,
		Level:   level,
		Session: session,
		Start:   start.Sub(r.t0).Nanoseconds(),
		End:     end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

// time runs f inside a span.
func (r *recorder) time(name, loop string, level int, session string, f func()) {
	if r == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	r.add(name, loop, level, session, t0, time.Now())
}

// attribution is the self-time accounting of one loop.
type attribution struct {
	loop  string
	wall  time.Duration // first operation start to last operation end
	ops   map[string]int
	self  map[string]time.Duration // per span name, op names included
	spans map[string]int           // spans per name
	// residual is loop wall time no operation covers: the benchmark's own
	// loop and checks between operations.
	residual time.Duration
}

// attribute assigns every non-operation span of each loop to the operation
// that contains its start, then splits each operation's interval between
// the spans active in it: every moment goes to the highest-level active
// span (the latest-started on ties), and moments no layer covers stay with
// the operation itself. Self times plus the residual sum to the loop's wall
// time exactly.
func (r *recorder) attribute() []attribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	byLoop := map[string][]int{}
	for i := range r.spans {
		byLoop[r.spans[i].Loop] = append(byLoop[r.spans[i].Loop], i)
	}
	var loops []string
	for l := range byLoop {
		loops = append(loops, l)
	}
	sort.Strings(loops)

	var out []attribution
	for _, loop := range loops {
		var ops, layers []int
		for _, i := range byLoop[loop] {
			if r.spans[i].Level == opLevel {
				ops = append(ops, i)
			} else {
				layers = append(layers, i)
			}
		}
		if len(ops) == 0 {
			continue
		}
		sort.Slice(ops, func(a, b int) bool { return r.spans[ops[a]].Start < r.spans[ops[b]].Start })
		a := attribution{loop: loop, ops: map[string]int{}, self: map[string]time.Duration{}, spans: map[string]int{}}
		children := make(map[int][]int, len(ops))
		for _, li := range layers {
			s := &r.spans[li]
			// The operation containing the span's start: the last one
			// starting at or before it.
			k := sort.Search(len(ops), func(j int) bool { return r.spans[ops[j]].Start > s.Start }) - 1
			if k < 0 || s.Start >= r.spans[ops[k]].End {
				continue // outside every operation (e.g. a set-up warm-up)
			}
			s.Parent = r.spans[ops[k]].ID
			children[k] = append(children[k], li)
			a.spans[s.Name]++
		}
		first, last := r.spans[ops[0]].Start, r.spans[ops[0]].End
		var covered int64
		for k, oi := range ops {
			op := r.spans[oi]
			a.ops[op.Name]++
			if op.End > last {
				last = op.End
			}
			covered += op.End - op.Start
			for name, d := range splitOp(op, r.spans, children[k]) {
				a.self[name] += d
			}
		}
		a.wall = time.Duration(last - first)
		a.residual = a.wall - time.Duration(covered)
		out = append(out, a)
	}
	return out
}

// splitOp charges each moment of op to the winning active span.
func splitOp(op span, all []span, kids []int) map[string]time.Duration {
	clip := func(v int64) int64 {
		if v < op.Start {
			return op.Start
		}
		if v > op.End {
			return op.End
		}
		return v
	}
	bounds := []int64{op.Start, op.End}
	for _, k := range kids {
		bounds = append(bounds, clip(all[k].Start), clip(all[k].End))
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		win := -1
		for _, k := range kids {
			s := all[k]
			if s.Start <= lo && s.End >= hi {
				if win < 0 || s.Level > all[win].Level || (s.Level == all[win].Level && s.Start > all[win].Start) {
					win = k
				}
			}
		}
		name := op.Name
		if win >= 0 {
			name = all[win].Name
		}
		out[name] += time.Duration(hi - lo)
	}
	return out
}

// write saves every span as one JSON line under dir.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// layerTable renders the self-time accounting and the traced-minus-untraced
// differences of the end-to-end metrics.
func layerTable(workload string, atts []attribution, traced map[string]metric) string {
	var b strings.Builder
	for _, a := range atts {
		nops := 0
		for _, n := range a.ops {
			nops += n
		}
		fmt.Fprintf(&b, "layer table: %s, loop %q, wall %.1f ms, %d ops %v\n", workload, a.loop, ms(a.wall), nops, a.ops)
		fmt.Fprintf(&b, "  %-22s %8s %12s %8s\n", "layer (span)", "spans", "self ms/op", "share")
		names := make([]string, 0, len(a.self))
		for n := range a.self {
			names = append(names, n)
		}
		sort.Strings(names)
		var sum time.Duration
		for _, n := range names {
			d := a.self[n]
			sum += d
			label := n
			if _, isOp := a.ops[n]; isOp {
				label = n + " (unattributed)"
			}
			fmt.Fprintf(&b, "  %-22s %8d %12.4f %7.2f%%\n", label, a.spans[n], ms(d)/float64(nops), 100*float64(d)/float64(a.wall))
		}
		fmt.Fprintf(&b, "  %-22s %8s %12.4f %7.2f%%\n", "residual (between ops)", "", ms(a.residual)/float64(nops), 100*float64(a.residual)/float64(a.wall))
		fmt.Fprintf(&b, "  self + residual = %.3f ms; wall = %.3f ms\n", ms(sum+a.residual), ms(a.wall))
	}
	if untraced, ok := lastUntraced(workload); ok {
		fmt.Fprintf(&b, "tracing overhead: %s, traced vs last untraced run\n", workload)
		for _, n := range endToEndNames {
			t, okT := traced[n]
			u, okU := untraced[n]
			if !okT || !okU || u.Value == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-14s traced %12.4f  untraced %12.4f  diff %+8.2f%%\n", n, t.Value, u.Value, 100*(t.Value-u.Value)/u.Value)
		}
	} else {
		fmt.Fprintf(&b, "tracing overhead: %s, no untraced result recorded yet\n", workload)
	}
	return b.String()
}

// busyFrac sums the self time of the named spans over every loop, as a
// share of the summed loop wall times.
func busyFrac(atts []attribution, names ...string) float64 {
	var busy, wall time.Duration
	for _, a := range atts {
		wall += a.wall
		for _, n := range names {
			busy += a.self[n]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(busy) / float64(wall)
}
