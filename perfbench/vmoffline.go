package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aprof"
	"aprof/internal/core"
	"aprof/internal/fit"
	"aprof/internal/profio"
	"aprof/internal/trace"
	"aprof/internal/vm"
	// The facade does not install the effect planner that Suppress needs;
	// cmd/minivm installs it the same way.
	_ "aprof/internal/vm/analysis"
	"aprof/internal/workloads"
)

// vmRoundsPerSecond sizes the vm-offline operation list: a round runs every
// VM program once (both suppression settings), about 17 ms on a 2-core
// x86-64 host.
const vmRoundsPerSecond = 60

// minFitPoints is the number of distinct input sizes a routine needs
// before its cost is fitted.
const minFitPoints = 3

// vmCase is one program under one suppression setting, with its oracle
// outputs.
type vmCase struct {
	prog     workloads.VMProgram
	suppress bool
	events   int
	apt2     int    // APT2 size of the trace, for trace.bytes_per_event
	oracle   []byte // profile JSON of core.RunNaive on the same trace
	fits     map[string]string
	memOps   uint64
	elided   uint64
}

type vmEnv struct {
	cases [][2]*vmCase // per program: suppression off, on
}

func buildVMEnv() (*vmEnv, error) {
	cfg := aprof.DefaultConfig()
	env := &vmEnv{}
	for _, p := range workloads.VMPrograms() {
		var pair [2]*vmCase
		for i, sup := range []bool{false, true} {
			res, err := vm.RunSource(p.Source, vm.Options{Suppress: sup})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			if fmt.Sprint(res.Output) != fmt.Sprint(p.WantOutput) {
				return nil, fmt.Errorf("%s: output %v, want %v", p.Name, res.Output, p.WantOutput)
			}
			naive, err := core.RunNaive(res.Trace, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: naive oracle: %w", p.Name, err)
			}
			var doc bytes.Buffer
			if err := profio.Write(&doc, naive); err != nil {
				return nil, err
			}
			fits, err := fitAll(naive)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			var enc countingWriter
			if err := trace.WriteBinary2(&enc, res.Trace); err != nil {
				return nil, err
			}
			c := &vmCase{prog: p, suppress: sup, events: len(res.Trace.Events), apt2: int(enc), oracle: doc.Bytes(), fits: fits}
			if res.Suppress != nil {
				c.memOps, c.elided = res.Suppress.MemOps, res.Suppress.Elided()
			}
			pair[i] = c
		}
		env.cases = append(env.cases, pair)
	}
	// Warm-up pass: one untraced job per program, checked like a measured
	// one.
	for _, pair := range env.cases {
		r := runVMJob(pair, [2]int{0, 1}, nil)
		if r.err != nil {
			return nil, r.err
		}
		if p := r.check(pair); p != "" {
			return nil, errors.New("warm-up: " + p)
		}
	}
	return env, nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// fitAll fits every routine with enough points, returning routine →
// formula.
func fitAll(ps *aprof.Profiles) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ps.Routines() {
		name := ps.Symbols.Name(id)
		m, err := aprof.FitCost(ps, name, aprof.DRMS)
		if errors.Is(err, fit.ErrTooFewPoints) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if m.Points >= minFitPoints {
			out[name] = m.Formula
		}
	}
	return out, nil
}

// vmJobResult is what one job produced.
type vmJobResult struct {
	docs   [2][]byte
	fits   [2]map[string]string
	events int
	allocs float64
	err    error
}

// check compares a job's outputs with the oracle; "" means correct.
func (r vmJobResult) check(pair [2]*vmCase) string {
	for i, c := range pair {
		if !bytes.Equal(r.docs[i], c.oracle) {
			return fmt.Sprintf("%s (suppress=%v): profile JSON differs from the naive oracle", c.prog.Name, c.suppress)
		}
		if fmt.Sprint(r.fits[i]) != fmt.Sprint(c.fits) {
			return fmt.Sprintf("%s (suppress=%v): fitted cost functions differ from the oracle's", c.prog.Name, c.suppress)
		}
	}
	return ""
}

// runVMJob profiles one program with suppression off and on, in the given
// order, the way a library user does: ProfileProgram, WriteProfiles, then
// FitCost for every routine with enough points. A traced job makes the
// same calls one layer at a time so each can be timed from outside.
func runVMJob(pair [2]*vmCase, order [2]int, rec *recorder) vmJobResult {
	var r vmJobResult
	cfg := aprof.DefaultConfig()
	for _, i := range order {
		c := pair[i]
		opts := aprof.VMOptions{Suppress: c.suppress}
		var ps *aprof.Profiles
		var res *aprof.VMResult
		var err error
		if rec == nil {
			ps, res, err = aprof.ProfileProgram(c.prog.Source, opts, cfg)
		} else {
			ps, res, err = tracedProfileProgram(c.prog.Source, opts, cfg, rec, &r.allocs)
		}
		if err != nil {
			r.err = fmt.Errorf("%s: %w", c.prog.Name, err)
			return r
		}
		r.events += len(res.Trace.Events)
		var doc bytes.Buffer
		rec.time("profio.write", "main", clientLevel, "", func() { err = aprof.WriteProfiles(&doc, ps) })
		if err != nil {
			r.err = err
			return r
		}
		r.docs[i] = doc.Bytes()
		rec.time("fit.fit", "main", clientLevel, "", func() { r.fits[i], err = fitAll(ps) })
		if err != nil {
			r.err = err
			return r
		}
	}
	return r
}

// tracedProfileProgram is aprof.ProfileProgram split at its layer calls.
func tracedProfileProgram(src string, opts vm.Options, cfg aprof.Config, rec *recorder, allocMB *float64) (*aprof.Profiles, *aprof.VMResult, error) {
	before := readAllocBytes()
	var cp *vm.CompiledProgram
	var err error
	rec.time("vm.compile", "main", clientLevel, "", func() { cp, err = vm.Compile(src) })
	if err != nil {
		return nil, nil, err
	}
	var res *vm.Result
	rec.time("vm.run", "main", clientLevel, "", func() { res, err = vm.RunProgram(cp, opts) })
	if err != nil {
		return nil, nil, err
	}
	*allocMB += (readAllocBytes() - before) / (1 << 20)
	var ps *aprof.Profiles
	rec.time("core.profile", "main", clientLevel, "", func() { ps, err = core.Run(res.Trace, cfg) })
	return ps, res, err
}

func runVMOffline(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	env, setupS, err := repeatSetup(out, func(int) (*vmEnv, error) { return buildVMEnv() }, func(*vmEnv) {})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setupS, "s")

	rounds := int(math.Ceil(float64(cfg.seconds) * vmRoundsPerSecond))
	rng := rand.New(rand.NewSource(cfg.seed))
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}

	var jobLat, readLat latencies
	var events, jobs int
	var allocMB float64
	sp := newSpeedometer()
	before, err := measureStart()
	if err != nil {
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		for _, pi := range rng.Perm(len(env.cases)) {
			pair := env.cases[pi]
			order := [2]int{0, 1}
			if rng.Intn(2) == 1 {
				order = [2]int{1, 0}
			}
			out.attempted++
			t0 := time.Now()
			r := runVMJob(pair, order, rec)
			t1 := time.Now()
			rec.add("job", "main", opLevel, pair[0].prog.Name, t0, t1)
			if r.err != nil {
				out.failed++
				out.problem("job %s: %v", pair[0].prog.Name, r.err)
				continue
			}
			jobLat.add(t1.Sub(t0))
			jobs++
			events += r.events
			allocMB += r.allocs
			if p := r.check(pair); p != "" {
				out.failed++
				out.problem("job %s", p)
			}

			// Reading the two documents back is what a consumer of the
			// written profiles (aprofdiff, reports) does first.
			out.attempted++
			var back [2]*aprof.Profiles
			var rerr error
			t0 = time.Now()
			rec.time("profio.read", "main", clientLevel, "", func() {
				for i := range back {
					if back[i], rerr = aprof.ReadProfiles(bytes.NewReader(r.docs[i])); rerr != nil {
						return
					}
				}
			})
			t1 = time.Now()
			rec.add("read", "main", opLevel, pair[0].prog.Name, t0, t1)
			if rerr == nil {
				rerr = checkRoundTrip(back, r.docs)
			}
			if rerr != nil {
				out.failed++
				out.problem("read %s: %v", pair[0].prog.Name, rerr)
				continue
			}
			readLat.add(t1.Sub(t0))
			sp.between()
		}
	}
	out.speed = sp.factor()
	after := readRuntime()

	out.set("ops_per_s", jobLat.rate(1), "1/s")
	out.set("events_per_s", jobLat.rate(float64(events)/float64(jobs)), "1/s")
	jobLat.report(out, "op")
	readLat.report(out, "read")
	setRuntime(out, before, after, out.attempted)

	if cfg.traced {
		atts := rec.attribute()
		var evs, apt2, memOps, elided float64
		for _, pair := range env.cases {
			for _, c := range pair {
				evs += float64(c.events)
				apt2 += float64(c.apt2)
				memOps += float64(c.memOps)
				elided += float64(c.elided)
			}
		}
		var coreSelf time.Duration
		for _, a := range atts {
			coreSelf += a.self["core.profile"]
		}
		layer := layerMetrics{
			"vm.busy_frac":          busyFrac(atts, "vm.compile", "vm.run"),
			"trace.events_per_op":   float64(events) / float64(jobs),
			"vm.elided_frac":        elided / memOps,
			"vm.alloc_mb_per_op":    allocMB / float64(jobs),
			"core.busy_frac":        busyFrac(atts, "core.profile"),
			"core.ns_per_event":     float64(coreSelf.Nanoseconds()) / float64(events),
			"trace.bytes_per_event": apt2 / evs,
			"profio.busy_frac":      busyFrac(atts, "profio.write", "profio.read"),
			"fit.busy_frac":         busyFrac(atts, "fit.fit"),
			"op.self_frac":          busyFrac(atts, "job", "read"),
			"residual_frac":         residualFrac(atts),
		}
		layer.apply(out)
		out.atts = atts
		if err := rec.write(spanPath(cfg, "vm-offline")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRoundTrip re-writes documents read back and compares the bytes.
func checkRoundTrip(back [2]*aprof.Profiles, docs [2][]byte) error {
	for i := range back {
		var b bytes.Buffer
		if err := aprof.WriteProfiles(&b, back[i]); err != nil {
			return err
		}
		if !bytes.Equal(b.Bytes(), docs[i]) {
			return errors.New("profile read back does not re-write to the same bytes")
		}
	}
	return nil
}
