package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"aprof"
	"aprof/internal/profio"
	"aprof/internal/repo"
	"aprof/internal/trace"
	"aprof/internal/workloads"
)

// ingestEvents is the target size of an ingest-replicated session: enough
// events that every session crosses at least one periodic checkpoint
// (profio.DefaultCheckpointEvery batches of profio.DefaultBatchSize).
const ingestEvents = 100_000

// ingestRoundsPerSecond sizes the ingest-replicated operation list: a round
// uploads every suite analogue once, about 2 s on a 2-core x86-64 host.
const ingestRoundsPerSecond = 0.5

// ingestWarmup is the number of sessions the set-up uploads before the
// measured phase.
const ingestWarmup = 2

// input is one APT2-encoded trace a client uploads.
type input struct {
	name       string
	data       []byte
	events     int
	suppressed bool
}

func encodeTrace(tr *trace.Trace) ([]byte, error) {
	var b bytes.Buffer
	if err := trace.WriteBinary2(&b, tr); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// oracleProfile is what a stored session must hold: the offline streaming
// profile of the same APT2 bytes.
func oracleProfile(data []byte) ([]byte, error) {
	ps, err := profio.ProfileStream(context.Background(), bytes.NewReader(data), aprof.DefaultConfig(), profio.StreamOptions{})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := profio.Write(&b, ps); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// suiteInputs encodes every paper suite analogue scaled to about
// ingestEvents events.
func suiteInputs() ([]input, error) {
	var out []input
	for _, b := range workloads.FullSuite() {
		base := len(b.Build().Events)
		tr := b.Scaled(int(math.Ceil(float64(ingestEvents) / float64(base)))).Build()
		data, err := encodeTrace(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out = append(out, input{name: b.Name, data: data, events: len(tr.Events)})
	}
	return out, nil
}

type ingestEnv struct {
	inputs []input
	c      *benchCluster
}

func runIngestReplicated(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	ctx := context.Background()
	build := func(i int) (*ingestEnv, error) {
		inputs, err := suiteInputs()
		if err != nil {
			return nil, err
		}
		c, err := startCluster(clusterOptions{dir: filepath.Join(cfg.data, fmt.Sprintf("ingest-%d", i)), rec: rec})
		if err != nil {
			return nil, err
		}
		for w := 0; w < ingestWarmup; w++ {
			in := inputs[w]
			id := fmt.Sprintf("warm-%d-%s", w, in.name)
			_, node, err := c.ingest(ctx, id, in.data, false, "main")
			if err != nil {
				c.close()
				return nil, fmt.Errorf("warm-up session %s: %w", id, err)
			}
			if _, status, err := c.get(node, id, new(bytes.Buffer)); err != nil || status != 200 {
				c.close()
				return nil, fmt.Errorf("warm-up read %s: status %d, %v", id, status, err)
			}
		}
		return &ingestEnv{inputs: inputs, c: c}, nil
	}
	env, setupS, err := repeatSetup(out, build, func(e *ingestEnv) { e.c.close() })
	if err != nil {
		return nil, err
	}
	defer env.c.close()
	out.set("setup_s", setupS, "s")
	cfg.fs["ingest-replicated store"] = fsType(cfg.data)

	rounds := int(math.Ceil(float64(cfg.seconds) * ingestRoundsPerSecond))
	rng := rand.New(rand.NewSource(cfg.seed))
	// Profiles of these sessions are megabytes each; a read keeps only the
	// hash of its body for the check after the measured phase.
	type done struct {
		id   string
		in   int
		read [sha256.Size]byte
	}
	var sessions []done
	var sessLat, readLat latencies
	var delivered uint64
	var attempts int
	var buf bytes.Buffer
	sp := newSpeedometer()
	env.c.resetCounters()
	snapBefore := env.c.snapshot()
	before, err := measureStart()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for _, k := range rng.Perm(len(env.inputs)) {
			in := env.inputs[k]
			id := fmt.Sprintf("s%d-%03d-%s", cfg.seed, len(sessions), in.name)
			out.attempted++
			sctx, cancel := context.WithTimeout(ctx, time.Minute)
			t0 := time.Now()
			res, node, err := env.c.ingest(sctx, id, in.data, false, "main")
			t1 := time.Now()
			cancel()
			rec.add("session", "main", opLevel, id, t0, t1)
			attempts += 1 + res.Reconnects
			switch {
			case err != nil:
				out.failed++
				out.problem("session %s: %v", id, err)
				continue
			case res.Reconnects > 0:
				out.failed++
				out.problem("session %s needed %d attempts", id, 1+res.Reconnects)
			case res.Delivered != uint64(in.events):
				out.failed++
				out.problem("session %s: %d events acked, want %d", id, res.Delivered, in.events)
			}
			sessLat.add(t1.Sub(t0))
			delivered += res.Delivered

			// The user then fetches the profile from the node that
			// acknowledged it.
			out.attempted++
			t0 = time.Now()
			body, status, err := env.c.get(node, id, &buf)
			t1 = time.Now()
			rec.add("read", "main", opLevel, id, t0, t1)
			if err != nil || status != 200 {
				out.failed++
				out.problem("read %s: status %d, %v", id, status, err)
				continue
			}
			readLat.add(t1.Sub(t0))
			sessions = append(sessions, done{id: id, in: k, read: sha256.Sum256(body)})
			sp.between()
		}
	}
	wall := time.Since(start) - sp.spent
	out.speed = sp.factor()
	after, snapAfter := readRuntime(), env.c.snapshot()

	out.set("ops_per_s", sessLat.rate(1), "1/s")
	out.set("events_per_s", sessLat.rate(float64(delivered)/float64(len(sessLat))), "1/s")
	sessLat.report(out, "op")
	readLat.report(out, "read")
	setRuntime(out, before, after, out.attempted)

	// Correctness, outside the measured phase.
	oracles := make([][]byte, len(env.inputs))
	for k, in := range env.inputs {
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
		if s.read != sha256.Sum256(oracles[s.in]) {
			out.failed++
			out.problem("read %s: body differs from the offline stream profile", s.id)
		}
	}
	out.problems = append(out.problems, env.c.check()...)

	if cfg.traced {
		var inBytes, inEvents float64
		for _, in := range env.inputs {
			inBytes += float64(len(in.data))
			inEvents += float64(in.events)
		}
		atts := rec.attribute()
		layer := env.c.layerMetrics(atts, snapBefore, snapAfter, len(sessions), len(sessions), delivered, wall)
		layer["trace.events_per_op"] = float64(delivered) / float64(len(sessions))
		layer["trace.bytes_per_event"] = inBytes / inEvents
		layer["client.attempts_per_session"] = float64(attempts) / float64(len(sessions))
		layer["op.self_frac"] = busyFrac(atts, "session", "read")
		layer["residual_frac"] = residualFrac(atts)
		layer.apply(out)
		out.atts = atts
		if err := rec.write(spanPath(cfg, "ingest-replicated")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clusterSnapshot holds the node obs values the per-layer metrics are
// deltas of.
type clusterSnapshot struct {
	decodeUS, profileUS      uint64
	shed, failed             uint64
	bytesWritten, bytesDedup uint64
}

func (c *benchCluster) snapshot() clusterSnapshot {
	return clusterSnapshot{
		decodeUS:     c.histSum(profio.ObsScopeProfio, "batch_decode_us"),
		profileUS:    c.histSum(profio.ObsScopeProfio, "batch_profile_us"),
		shed:         c.counter("server", "sessions_shed"),
		failed:       c.counter("server", "sessions_failed"),
		bytesWritten: c.counter(repo.ObsScopeRepo, "bytes_written"),
		bytesDedup:   c.counter(repo.ObsScopeRepo, "bytes_deduped"),
	}
}

// resetCounters zeroes the traced wrappers' counters before the measured
// phase, so set-up traffic is not counted.
func (c *benchCluster) resetCounters() {
	for _, v := range []interface{ Store(int64) }{&c.replicates, &c.ckptBytes, &c.saves, &c.snapshots, &c.snapBytes, &c.loads, &c.requests, &c.wireBytes} {
		v.Store(0)
	}
}

// layerMetrics derives the cluster workloads' per-layer metrics.
func (c *benchCluster) layerMetrics(atts []attribution, before, after clusterSnapshot, sessions, reads int, delivered uint64, wall time.Duration) layerMetrics {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	written := float64(after.bytesWritten - before.bytesWritten)
	deduped := float64(after.bytesDedup - before.bytesDedup)
	return layerMetrics{
		"core.busy_frac":                 div(float64(after.profileUS-before.profileUS)*1000, float64(wall.Nanoseconds())),
		"core.ns_per_event":              div(float64(after.profileUS-before.profileUS)*1000, float64(delivered)),
		"core.checkpoint_kb":             div(float64(c.ckptBytes.Load()), float64(c.replicates.Load())) / 1024,
		"trace.decode_frac":              div(float64(after.decodeUS-before.decodeUS)*1000, float64(wall.Nanoseconds())),
		"wire.blocked_frac":              busyFrac(atts, "wire.write"),
		"wire.bytes_per_event":           div(float64(c.wireBytes.Load()), float64(delivered)),
		"server.sessions_shed":           float64(after.shed - before.shed),
		"server.sessions_failed":         float64(after.failed - before.failed),
		"replica.busy_frac":              busyFrac(atts, "replica.replicate", "replica.recover", "replica.drop"),
		"replica.replicates_per_session": div(float64(c.replicates.Load()), float64(sessions)),
		"repo.busy_frac":                 busyFrac(atts, "repo.save", "repo.load", "repo.remove"),
		"repo.saves_per_session":         div(float64(c.saves.Load()), float64(sessions)),
		"repo.snapshot_kb":               div(float64(c.snapBytes.Load()), float64(c.snapshots.Load())) / 1024,
		"repo.loads_per_read":            div(float64(c.loads.Load()), float64(reads)),
		"repo.dedup_frac":                div(deduped, written+deduped),
		"cluster.busy_frac":              busyFrac(atts, "cluster.serve"),
		"cluster.hops_per_read":          div(float64(c.requests.Load()), float64(reads)),
	}
}
