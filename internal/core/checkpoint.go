package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// Checkpointing serializes the complete state of a running Profiler — global
// counter, shadow memories, per-thread shadow stacks, collected profiles,
// drop counters, and the degradation machinery — so a crashed streaming run
// can resume from the last checkpoint and produce output byte-identical to
// an uninterrupted run.
//
// The shadow tables are stored as their non-zero cells only. This is exact,
// not approximate: the global counter starts at 1 and renumbering maps
// non-zero timestamps to non-zero ranks, so every cell ever stored holds a
// non-zero value and every materialized chunk contains at least one; the
// rebuilt tables therefore have identical contents *and* identical chunk
// counts, keeping the MaxMemoryBytes size estimate — and with it every
// future sampling decision — unchanged across resume.
//
// File layout: "APCK" magic, version byte, uint32 little-endian payload
// length, uint32 little-endian CRC-32 (IEEE) of the payload, gob-encoded
// checkpointData. The checksum makes a torn checkpoint write (the crash the
// mechanism exists for) detectable instead of silently resumable.

const checkpointMagic = "APCK"
const checkpointVersion = 1

// StreamState is the trace-reader position stored alongside the profiler
// state, letting ResumeStream re-synchronize the input.
type StreamState struct {
	// EventsDelivered counts events actually fed to the profiler (corrupt
	// frames skipped by a lenient reader are not included). Resuming skips
	// exactly this many events.
	EventsDelivered uint64
	// Corruption is the reader's cumulative corruption accounting for the
	// delivered prefix. A resumed run continues the counts from here.
	Corruption trace.CorruptionStats
}

// ErrCheckpointUnsupported is wrapped by WriteCheckpoint when the profiler
// configuration cannot be checkpointed.
var ErrCheckpointUnsupported = fmt.Errorf("core: configuration does not support checkpointing")

// ErrCheckpointCorrupt is wrapped by ResumeProfiler (and ReadCheckpointState)
// when the checkpoint bytes themselves are damaged — torn header, bad magic,
// truncated payload, CRC mismatch, or an undecodable gob. Callers that keep a
// service available (the aprofd daemon) test for it to distinguish "this file
// can never be resumed, fall back to a fresh run" from environmental errors
// like a missing file or a configuration mismatch.
var ErrCheckpointCorrupt = fmt.Errorf("core: corrupt checkpoint")

type ckptCell struct {
	Addr uint64
	Val  uint64
}

type ckptCell8 struct {
	Addr uint64
	Val  uint8
}

type ckptFrame struct {
	Rtn         uint32
	TS          uint64
	EntryCost   uint64
	First       int64
	IndThread   int64
	IndExternal int64
	RMS         int64
}

type ckptThread struct {
	ID       int32
	Cost     uint64
	Overflow int
	TS       []ckptCell
	Stack    []ckptFrame
}

type ckptPoint struct {
	N     uint64
	Count uint64
	Max   uint64
	Min   uint64
	Sum   uint64
	SumSq float64
}

type ckptProfile struct {
	Routine         uint32
	Thread          int32
	Calls           uint64
	SumRMS          uint64
	SumDRMS         uint64
	FirstReads      uint64
	InducedThread   uint64
	InducedExternal uint64
	TotalCost       uint64
	MaxPoints       int
	DRMSShift       uint8
	RMSShift        uint8
	DRMS            []ckptPoint
	RMS             []ckptPoint
}

// ckptConfig fingerprints the semantically relevant configuration. Resume
// validates it against the caller-provided Config: resuming under different
// settings would silently change the algorithm mid-run.
type ckptConfig struct {
	ThreadInput         bool
	ExternalInput       bool
	CounterLimit        uint64
	MaxPointsPerProfile int
	FaultPolicy         int
	MaxDepth            int
	MaxEvents           int
	MaxMemoryBytes      int64
}

func fingerprint(cfg Config) ckptConfig {
	return ckptConfig{
		ThreadInput:         cfg.ThreadInput,
		ExternalInput:       cfg.ExternalInput,
		CounterLimit:        cfg.CounterLimit,
		MaxPointsPerProfile: cfg.MaxPointsPerProfile,
		FaultPolicy:         int(cfg.FaultPolicy),
		MaxDepth:            cfg.Limits.MaxDepth,
		MaxEvents:           cfg.Limits.MaxEvents,
		MaxMemoryBytes:      cfg.Limits.MaxMemoryBytes,
	}
}

type checkpointData struct {
	Cfg            ckptConfig
	Count          uint64
	Symbols        []string
	WTS            []ckptCell
	WKind          []ckptCell8
	Threads        []ckptThread
	Profiles       []ckptProfile
	Events         int
	Renumberings   int
	Drops          DropStats
	MemSeq         uint64
	MemStride      uint64
	NextEventCheck uint64
	Stream         StreamState
}

// dumpTable64 and dumpTable8 list a shadow table's non-zero cells in
// ascending address order (the order ForEach visits them), which keeps the
// checkpoint bytes a pure function of the profiler state.
func dumpTable64(t *shadow.Table[uint64]) []ckptCell {
	var out []ckptCell
	t.ForEach(func(v uint64) bool { return v == 0 }, func(a trace.Addr, v uint64) {
		out = append(out, ckptCell{Addr: uint64(a), Val: v})
	})
	return out
}

func dumpTable8(t *shadow.Table[uint8]) []ckptCell8 {
	var out []ckptCell8
	t.ForEach(func(v uint8) bool { return v == 0 }, func(a trace.Addr, v uint8) {
		out = append(out, ckptCell8{Addr: uint64(a), Val: v})
	})
	return out
}

func dumpPoints(points map[uint64]*CostStats) []ckptPoint {
	out := make([]ckptPoint, 0, len(points))
	for n, st := range points {
		out = append(out, ckptPoint{
			N: n, Count: st.Count, Max: st.Max, Min: st.Min, Sum: st.Sum, SumSq: st.SumSq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

func loadPoints(points []ckptPoint) map[uint64]*CostStats {
	out := make(map[uint64]*CostStats, len(points))
	for _, p := range points {
		out[p.N] = &CostStats{Count: p.Count, Max: p.Max, Min: p.Min, Sum: p.Sum, SumSq: p.SumSq}
	}
	return out
}

// WriteCheckpoint serializes the profiler's complete state plus the stream
// position to w. The profiler must be healthy (no pending error, not
// finished). Context-sensitive runs are refused: the calling-context tree is
// pointer-linked and not yet serializable.
func (p *Profiler) WriteCheckpoint(w io.Writer, stream StreamState) error {
	if p.obs != nil {
		start := time.Now()
		defer func() {
			p.obs.ckptWrite.Observe(uint64(time.Since(start).Microseconds()))
		}()
	}
	if p.err != nil {
		return fmt.Errorf("core: cannot checkpoint a failed profiler: %w", p.err)
	}
	if p.finished {
		return fmt.Errorf("core: cannot checkpoint after Finish")
	}
	if p.cfg.ContextSensitive {
		return fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	data := checkpointData{
		Cfg:            fingerprint(p.cfg),
		Count:          p.count,
		Symbols:        p.syms.Names(),
		Events:         p.out.Events,
		Renumberings:   p.out.Renumberings,
		Drops:          p.out.Drops,
		MemSeq:         p.memSeq,
		MemStride:      p.memStride,
		NextEventCheck: p.nextEventCheck,
		Stream:         stream,
	}
	if p.wts != nil {
		data.WTS = dumpTable64(p.wts)
		data.WKind = dumpTable8(p.wkind)
	}
	tids := make([]trace.ThreadID, 0, len(p.threads))
	for id := range p.threads {
		tids = append(tids, id)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, id := range tids {
		t := p.threads[id]
		ct := ckptThread{
			ID:       int32(id),
			Cost:     t.cost,
			Overflow: t.overflow,
			TS:       dumpTable64(t.ts),
		}
		for i := range t.stack {
			f := &t.stack[i]
			ct.Stack = append(ct.Stack, ckptFrame{
				Rtn: uint32(f.rtn), TS: f.ts, EntryCost: f.entryCost,
				First: f.first, IndThread: f.indThread, IndExternal: f.indExternal, RMS: f.rms,
			})
		}
		data.Threads = append(data.Threads, ct)
	}
	keys := make([]Key, 0, len(p.out.ByKey))
	for k := range p.out.ByKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Routine != keys[j].Routine {
			return keys[i].Routine < keys[j].Routine
		}
		return keys[i].Thread < keys[j].Thread
	})
	for _, k := range keys {
		prof := p.out.ByKey[k]
		data.Profiles = append(data.Profiles, ckptProfile{
			Routine: uint32(k.Routine), Thread: int32(k.Thread),
			Calls: prof.Calls, SumRMS: prof.SumRMS, SumDRMS: prof.SumDRMS,
			FirstReads: prof.FirstReads, InducedThread: prof.InducedThread,
			InducedExternal: prof.InducedExternal, TotalCost: prof.TotalCost,
			MaxPoints: prof.maxPoints, DRMSShift: prof.drmsShift, RMSShift: prof.rmsShift,
			DRMS: dumpPoints(prof.DRMSPoints), RMS: dumpPoints(prof.RMSPoints),
		})
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&data); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	hdr := make([]byte, 0, len(checkpointMagic)+1+8)
	hdr = append(hdr, checkpointMagic...)
	hdr = append(hdr, checkpointVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(payload.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// readCheckpointData reads and integrity-checks one checkpoint document.
// Every failure mode that means "the bytes are damaged" — a short or torn
// header, wrong magic, truncated payload, checksum mismatch, undecodable
// gob — wraps ErrCheckpointCorrupt, so a torn write detected at resume time
// is diagnosable as such rather than a grab-bag of io errors.
func readCheckpointData(r io.Reader) (*checkpointData, error) {
	hdr := make([]byte, len(checkpointMagic)+1+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCheckpointCorrupt, err)
	}
	if string(hdr[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: not a checkpoint file (bad magic %q)", ErrCheckpointCorrupt, hdr[:4])
	}
	if hdr[4] != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCheckpointCorrupt, hdr[4])
	}
	length := binary.LittleEndian.Uint32(hdr[5:9])
	sum := binary.LittleEndian.Uint32(hdr[9:13])
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: reading payload (%d bytes declared): %v", ErrCheckpointCorrupt, length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x): torn or corrupt write", ErrCheckpointCorrupt, sum, got)
	}
	var data checkpointData
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&data); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCheckpointCorrupt, err)
	}
	return &data, nil
}

// ReadCheckpointState reads just the stream position from a checkpoint,
// validating integrity and that cfg matches the checkpointed configuration.
// The aprofd daemon uses it to learn a session's resume offset — and to
// reject an unusable checkpoint — before committing to a resumed run.
func ReadCheckpointState(r io.Reader, cfg Config) (StreamState, error) {
	var none StreamState
	data, err := readCheckpointData(r)
	if err != nil {
		return none, err
	}
	if got, want := fingerprint(cfg), data.Cfg; got != want {
		return none, fmt.Errorf("core: checkpoint was taken under a different configuration (checkpoint %+v, resume %+v)", want, got)
	}
	return data.Stream, nil
}

// ResumeProfiler rebuilds a profiler from a checkpoint written by
// WriteCheckpoint. cfg must match the checkpointed configuration in every
// semantically relevant field (callbacks like OnActivation are exempt and
// are taken from cfg). The returned StreamState tells the caller where to
// reposition the trace stream.
func ResumeProfiler(r io.Reader, cfg Config) (*Profiler, StreamState, error) {
	start := time.Now()
	var none StreamState
	dataPtr, err := readCheckpointData(r)
	if err != nil {
		return nil, none, err
	}
	data := *dataPtr
	if cfg.ContextSensitive {
		return nil, none, fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	if got, want := fingerprint(cfg), data.Cfg; got != want {
		return nil, none, fmt.Errorf("core: checkpoint was taken under a different configuration (checkpoint %+v, resume %+v)", want, got)
	}

	syms := trace.NewSymbolTable()
	for _, n := range data.Symbols {
		syms.Intern(n)
	}
	p := NewProfiler(syms, cfg)
	p.count = data.Count
	p.out.Events = data.Events
	p.out.Renumberings = data.Renumberings
	p.out.Drops = data.Drops
	p.memSeq = data.MemSeq
	p.memStride = data.MemStride
	p.nextEventCheck = data.NextEventCheck
	if p.wts != nil {
		for _, c := range data.WTS {
			p.wts.Store(trace.Addr(c.Addr), c.Val)
		}
		for _, c := range data.WKind {
			p.wkind.Store(trace.Addr(c.Addr), c.Val)
		}
	}
	for _, ct := range data.Threads {
		t := p.thread(trace.ThreadID(ct.ID))
		t.cost = ct.Cost
		t.overflow = ct.Overflow
		for _, c := range ct.TS {
			t.ts.Store(trace.Addr(c.Addr), c.Val)
		}
		for _, cf := range ct.Stack {
			t.stack = append(t.stack, frame{
				rtn: trace.RoutineID(cf.Rtn), ts: cf.TS, entryCost: cf.EntryCost,
				first: cf.First, indThread: cf.IndThread, indExternal: cf.IndExternal, rms: cf.RMS,
			})
		}
	}
	for _, cp := range data.Profiles {
		key := Key{Routine: trace.RoutineID(cp.Routine), Thread: trace.ThreadID(cp.Thread)}
		prof := newProfile(key.Routine, key.Thread)
		prof.Calls = cp.Calls
		prof.SumRMS = cp.SumRMS
		prof.SumDRMS = cp.SumDRMS
		prof.FirstReads = cp.FirstReads
		prof.InducedThread = cp.InducedThread
		prof.InducedExternal = cp.InducedExternal
		prof.TotalCost = cp.TotalCost
		prof.maxPoints = cp.MaxPoints
		prof.drmsShift = cp.DRMSShift
		prof.rmsShift = cp.RMSShift
		prof.DRMSPoints = loadPoints(cp.DRMS)
		prof.RMSPoints = loadPoints(cp.RMS)
		p.out.ByKey[key] = prof
	}
	// Restart the depth high-water mark from the restored stacks, and record
	// how long the rebuild took.
	for _, t := range p.threads {
		if len(t.stack) > p.depthHWM {
			p.depthHWM = len(t.stack)
		}
	}
	if p.obs != nil {
		p.obs.ckptResume.Observe(uint64(time.Since(start).Microseconds()))
	}
	return p, data.Stream, nil
}
