package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aprof/internal/trace"
)

// runSplit profiles tr feeding the first n events, checkpointing, resuming
// into a fresh profiler, and feeding the rest; it returns the resumed run's
// output.
func runSplit(t *testing.T, tr *trace.Trace, cfg Config, n int) *Profiles {
	t.Helper()
	p := NewProfiler(tr.Symbols, cfg)
	for i := 0; i < n; i++ {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{EventsDelivered: uint64(n)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	q, state, err := ResumeProfiler(&buf, cfg)
	if err != nil {
		t.Fatalf("ResumeProfiler: %v", err)
	}
	if state.EventsDelivered != uint64(n) {
		t.Fatalf("StreamState.EventsDelivered = %d, want %d", state.EventsDelivered, n)
	}
	for i := n; i < len(tr.Events); i++ {
		if err := q.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatalf("resumed event %d: %v", i, err)
		}
	}
	ps, err := q.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// profilesEquivalent compares two Profiles structurally (same package, so
// unexported bucketing state is included via DeepEqual).
func profilesEquivalent(a, b *Profiles) bool {
	if !reflect.DeepEqual(a.Symbols.Names(), b.Symbols.Names()) {
		return false
	}
	if len(a.ByKey) != len(b.ByKey) {
		return false
	}
	for k, pa := range a.ByKey {
		pb := b.ByKey[k]
		if pb == nil || !reflect.DeepEqual(pa, pb) {
			return false
		}
	}
	return a.Events == b.Events && a.Renumberings == b.Renumberings && a.Drops == b.Drops
}

// TestCheckpointRoundTrip checks that checkpointing at several cut points —
// including mid-activation, with frames live on multiple stacks — and
// resuming reproduces the uninterrupted run exactly, across configurations
// covering renumbering, point capping, fault counting, and limits.
func TestCheckpointRoundTrip(t *testing.T) {
	configs := map[string]Config{
		"default":  DefaultConfig(),
		"rms-only": RMSOnlyConfig(),
		"renumber": {ThreadInput: true, ExternalInput: true, CounterLimit: 200},
		"capped":   {ThreadInput: true, ExternalInput: true, MaxPointsPerProfile: 4},
		"faulty":   {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount},
		"limited": {ThreadInput: true, ExternalInput: true, FaultPolicy: FaultCount,
			Limits: Limits{MaxDepth: 6, MaxEvents: 100}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			tr := trace.Random(RandomTraceConfig(name))
			base := cfg
			want, err := Run(tr, base)
			if err != nil {
				t.Fatal(err)
			}
			if name == "renumber" && want.Renumberings == 0 {
				t.Fatal("renumber config never triggered a renumbering: test is vacuous")
			}
			if name == "limited" && want.Drops.Total() == 0 {
				t.Fatal("limited config never dropped: test is vacuous")
			}
			for _, frac := range []int{1, 3, 7} {
				n := len(tr.Events) * frac / 8
				got := runSplit(t, tr, cfg, n)
				if !profilesEquivalent(want, got) {
					t.Errorf("cut at %d/%d events: resumed profiles differ", n, len(tr.Events))
				}
			}
		})
	}
}

// RandomTraceConfig derives a deterministic per-config trace seed.
func RandomTraceConfig(name string) trace.RandomConfig {
	var seed int64
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	return trace.RandomConfig{Seed: seed, Ops: 600, Threads: 3}
}

// TestCheckpointRefusesContextSensitive pins the documented limitation.
func TestCheckpointRefusesContextSensitive(t *testing.T) {
	cfg := Config{ContextSensitive: true}
	p := NewProfiler(trace.NewSymbolTable(), cfg)
	err := p.WriteCheckpoint(&bytes.Buffer{}, StreamState{})
	if err == nil || !strings.Contains(err.Error(), "context-sensitive") {
		t.Errorf("WriteCheckpoint = %v, want context-sensitive refusal", err)
	}
}

// TestCheckpointDetectsCorruption flips one payload byte: the CRC must
// reject the file.
func TestCheckpointDetectsCorruption(t *testing.T) {
	tr := trace.Random(trace.RandomConfig{Seed: 3, Ops: 100})
	p := NewProfiler(tr.Symbols, DefaultConfig())
	for i := range tr.Events {
		if err := p.HandleEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-5] ^= 0x01
	if _, _, err := ResumeProfiler(bytes.NewReader(data), DefaultConfig()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("ResumeProfiler on corrupt file = %v, want checksum error", err)
	}
}

// TestCheckpointConfigMismatch checks that resuming under different
// semantics is refused rather than silently accepted.
func TestCheckpointConfigMismatch(t *testing.T) {
	p := NewProfiler(trace.NewSymbolTable(), DefaultConfig())
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf, StreamState{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeProfiler(&buf, RMSOnlyConfig()); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("ResumeProfiler with mismatched config = %v, want refusal", err)
	}
}

// TestShardBoundaryAdversarial cuts each crafted boundary trace into two time
// shards at every split position, checkpointing after the first and resuming
// into a fresh profiler for the second: a first read whose writer is in the
// other shard, a same-counter kernel/thread write pair, and stacks crossing
// the depth limit. Every split must reproduce the uninterrupted profile.
func TestShardBoundaryAdversarial(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
		cfg  Config
	}{
		{"cross-shard-handoff", handoffTrace(), DefaultConfig()},
		{"same-count-writes", sameCountWritesTrace(), DefaultConfig()},
		{"deep-stacks", deepStacksTrace(), Config{ThreadInput: true, ExternalInput: true, Limits: Limits{MaxDepth: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.tr, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for split := 1; split < len(tc.tr.Events); split++ {
				if got := runSplit(t, tc.tr, tc.cfg, split); !profilesEquivalent(got, want) {
					t.Fatalf("split=%d: diverges\nuninterrupted: %+v\nresumed:       %+v",
						split, summarize(want), summarize(got))
				}
			}
		})
	}
}
