package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"aprof"
	"aprof/internal/cluster"
	"aprof/internal/core"
	"aprof/internal/profio"
	"aprof/internal/repo"
	"aprof/internal/trace"
	"aprof/internal/vm"
	"aprof/internal/workloads"
)

// churnStored is the number of distinct sessions each node's store holds
// before the measured phase.
const churnStored = 1000

// churnStoredOps sizes each stored session's trace.Random input: profiles
// of about 20 KB, so the stored set spans several 4 MiB packs and random
// reads miss the repository's one-pack cache.
const (
	churnStoredOps      = 200
	churnStoredRoutines = 40
)

// churnSessionsPerSecond sizes the session-churn writer's operation list,
// in whole rounds of the ten VM traces.
const churnSessionsPerSecond = 130

type churnEnv struct {
	writes []input
	stored map[string][]byte
	ids    []string
	c      *benchCluster
}

// vmInputs encodes every VM program's own trace, with suppression off and
// on.
func vmInputs() ([]input, error) {
	var out []input
	for _, p := range workloads.VMPrograms() {
		for _, sup := range []bool{false, true} {
			res, err := vm.RunSource(p.Source, vm.Options{Suppress: sup})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			data, err := encodeTrace(res.Trace)
			if err != nil {
				return nil, err
			}
			name := p.Name
			if sup {
				name += "-sup"
			}
			out = append(out, input{name: name, data: data, events: len(res.Trace.Events), suppressed: sup})
		}
	}
	return out, nil
}

// storedProfiles generates the pre-populated sessions: profiles of
// distinct seeded random traces.
func storedProfiles(seed int64) (map[string][]byte, []string, error) {
	docs := make(map[string][]byte, churnStored)
	ids := make([]string, 0, churnStored)
	for i := 0; i < churnStored; i++ {
		tr := trace.Random(trace.RandomConfig{Seed: seed*churnStored + int64(i), Ops: churnStoredOps, Routines: churnStoredRoutines})
		ps, err := core.Run(tr, aprof.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		var b bytes.Buffer
		if err := profio.Write(&b, ps); err != nil {
			return nil, nil, err
		}
		id := fmt.Sprintf("stored-%d-%04d", seed, i)
		docs[id] = b.Bytes()
		ids = append(ids, id)
	}
	return docs, ids, nil
}

// prefill stores every document through the repository API with one
// snapshot root: putting them one SaveProfile at a time would rewrite the
// root per session, O(N²) overall.
func prefill(docs map[string][]byte, ids []string) func(*repo.Repository) error {
	return func(r *repo.Repository) error {
		heads := make(map[string]repo.ID, len(ids))
		for _, id := range ids {
			mid, err := r.Put(docs[id])
			if err != nil {
				return err
			}
			heads[id] = mid
		}
		_, err := r.Snapshot(heads)
		return err
	}
}

// writerID names the writer's n-th session so that its ring owner is not
// the reader's node. Reads then share the host with the writes but never
// wait for a save on their own node: with both on one node, about a tenth
// of the reads waited for a snapshot rewrite, which put read_p90_ms on the
// edge between waiting and not waiting, where it moved ±10% between runs
// of the same seed. The id leaves out the seed and the input, so the same
// nodes own the same positions on every run.
func writerID(ring *cluster.Ring, reader string, n int) string {
	for k := 0; ; k++ {
		if id := fmt.Sprintf("w-%04d-%d", n, k); ring.Owner(id) != reader {
			return id
		}
	}
}

func runSessionChurn(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	ctx := context.Background()
	// Reads and their store loads belong to the reader; everything else
	// the nodes do belongs to the writer's sessions.
	loopOf := func(span string) string {
		if span == "repo.load" || span == "cluster.serve" {
			return "reader"
		}
		return "writer"
	}
	build := func(i int) (*churnEnv, error) {
		writes, err := vmInputs()
		if err != nil {
			return nil, err
		}
		docs, ids, err := storedProfiles(cfg.seed)
		if err != nil {
			return nil, err
		}
		c, err := startCluster(clusterOptions{
			dir:      filepath.Join(cfg.data, fmt.Sprintf("churn-%d", i)),
			memStore: true,
			prefill:  prefill(docs, ids),
			rec:      rec,
			loopOf:   loopOf,
		})
		if err != nil {
			return nil, err
		}
		env := &churnEnv{writes: writes, stored: docs, ids: ids, c: c}
		// Warm-up pass: every writer input once, and as many reads.
		for w, in := range writes {
			if _, _, err := c.ingest(ctx, fmt.Sprintf("warm-%d-%s", w, in.name), in.data, in.suppressed, "writer"); err != nil {
				c.close()
				return nil, fmt.Errorf("warm-up session: %w", err)
			}
			if _, status, err := c.get(0, ids[w], new(bytes.Buffer)); err != nil || status != 200 {
				c.close()
				return nil, fmt.Errorf("warm-up read: status %d, %v", status, err)
			}
		}
		return env, nil
	}
	env, setupS, err := repeatSetup(out, build, func(e *churnEnv) { e.c.close() })
	if err != nil {
		return nil, err
	}
	defer env.c.close()
	out.set("setup_s", setupS, "s")
	cfg.fs["session-churn store"] = "memory"
	cfg.fs["session-churn checkpoints"] = fsType(cfg.data)

	rounds := int(math.Ceil(float64(cfg.seconds) * churnSessionsPerSecond / float64(len(env.writes))))
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(len(env.writes))...)
	}
	readRng := rand.New(rand.NewSource(cfg.seed + 1))
	ring, err := cluster.NewRing(env.c.addrs, 0)
	if err != nil {
		return nil, err
	}

	type done struct {
		id string
		in int
	}
	var (
		sessions       []done
		sessLat        latencies
		delivered      uint64
		attempts       int
		writerAttempts int
		writerFailed   int
		writerProblems []string
		writerWall     time.Duration
	)
	var (
		readLat      latencies
		reads        int
		readFailed   int
		readProblems []string
	)
	// The writer probes the host speed; the reader parks meanwhile, so the
	// probe runs while the program is idle.
	sp := newSpeedometer()
	park, resume := make(chan struct{}), make(chan struct{})
	env.c.resetCounters()
	snapBefore := env.c.snapshot()
	before, err := measureStart()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Reader: GETs stored profiles until the writer is done, walking
		// seeded permutations of the whole stored set so every session is
		// read equally often.
		defer wg.Done()
		var perm []int
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			case <-park:
				<-resume
				continue
			default:
			}
			if len(perm) == 0 {
				perm = readRng.Perm(len(env.ids))
			}
			id := env.ids[perm[0]]
			perm = perm[1:]
			reads++
			t0 := time.Now()
			body, status, err := env.c.get(0, id, &buf)
			t1 := time.Now()
			rec.add("read", "reader", opLevel, id, t0, t1)
			if err != nil || status != 200 || !bytes.Equal(body, env.stored[id]) {
				readFailed++
				readProblems = append(readProblems, fmt.Sprintf("read %s: status %d, err %v, body matches: %v", id, status, err, bytes.Equal(body, env.stored[id])))
				continue
			}
			readLat.add(t1.Sub(t0))
		}
	}()

	start := time.Now()
	for n, k := range order {
		in := env.writes[k]
		id := writerID(ring, env.c.addrs[0], n)
		writerAttempts++
		sctx, cancel := context.WithTimeout(ctx, time.Minute)
		t0 := time.Now()
		res, _, err := env.c.ingest(sctx, id, in.data, in.suppressed, "writer")
		t1 := time.Now()
		cancel()
		rec.add("session", "writer", opLevel, id, t0, t1)
		attempts += 1 + res.Reconnects
		switch {
		case err != nil:
			writerFailed++
			writerProblems = append(writerProblems, fmt.Sprintf("session %s: %v", id, err))
			continue
		case res.Reconnects > 0 || res.Delivered != uint64(in.events):
			writerFailed++
			writerProblems = append(writerProblems, fmt.Sprintf("session %s: %d attempts, %d of %d events acked", id, 1+res.Reconnects, res.Delivered, in.events))
		}
		sessLat.add(t1.Sub(t0))
		delivered += res.Delivered
		sessions = append(sessions, done{id: id, in: k})
		if sp.due() {
			park <- struct{}{}
			sp.probe()
			resume <- struct{}{}
		}
	}
	writerWall = time.Since(start) - sp.spent
	close(stop)
	wg.Wait()
	out.speed = sp.factor()
	after, snapAfter := readRuntime(), env.c.snapshot()

	out.attempted = writerAttempts + reads
	out.failed = writerFailed + readFailed
	out.problems = append(append(out.problems, writerProblems...), readProblems...)
	out.set("ops_per_s", sessLat.rate(1), "1/s")
	out.set("events_per_s", sessLat.rate(float64(delivered)/float64(len(sessLat))), "1/s")
	sessLat.report(out, "op")
	readLat.report(out, "read")
	setRuntime(out, before, after, out.attempted)

	// Correctness, outside the measured phase.
	oracles := make([][]byte, len(env.writes))
	for k, in := range env.writes {
		if oracles[k], err = oracleProfile(in.data); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", in.name, err)
		}
	}
	for _, s := range sessions {
		stored, ok := env.c.storedProfile(s.id)
		if !ok {
			out.problem("session %s: not in any node's store", s.id)
		} else if !bytes.Equal(stored, oracles[s.in]) {
			out.problem("session %s: stored profile differs from the offline stream profile", s.id)
		}
	}
	out.problems = append(out.problems, env.c.check()...)

	if cfg.traced {
		var inBytes, inEvents, memOps, elided float64
		for _, in := range env.writes {
			inBytes += float64(len(in.data))
			inEvents += float64(in.events)
		}
		for _, p := range workloads.VMPrograms() {
			res, err := vm.RunSource(p.Source, vm.Options{Suppress: true})
			if err != nil {
				return nil, err
			}
			memOps += float64(res.Suppress.MemOps)
			elided += float64(res.Suppress.Elided())
		}
		atts := rec.attribute()
		layer := env.c.layerMetrics(atts, snapBefore, snapAfter, len(sessions), reads, delivered, writerWall)
		layer["trace.events_per_op"] = float64(delivered) / float64(len(sessions))
		layer["vm.elided_frac"] = elided / memOps
		layer["trace.bytes_per_event"] = inBytes / inEvents
		layer["client.attempts_per_session"] = float64(attempts) / float64(len(sessions))
		layer["op.self_frac"] = busyFrac(atts, "session", "read")
		layer["residual_frac"] = residualFrac(atts)
		layer.apply(out)
		out.atts = atts
		if err := rec.write(spanPath(cfg, "session-churn")); err != nil {
			return nil, err
		}
	}
	return out, nil
}
