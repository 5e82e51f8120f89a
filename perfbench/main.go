// Command perfbench is the repository's end-to-end benchmark of the
// aprof-drms path. It drives one workload through the public entry points
// users call, checks every output against an oracle outside the timed
// intervals, and prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, via run.sh, which builds this package):
//
//	bash perfbench/run.sh --workload vm-offline --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	vm-offline         library path: ProfileProgram + WriteProfiles + FitCost
//	ingest-replicated  3 in-process aprofd nodes, R=2 replication, disk store
//	session-churn      the same cluster over in-memory stores pre-filled with
//	                   ~1,000 sessions; short sessions written while a reader
//	                   GETs stored profiles
//
// Every run performs a fixed, seeded list of operations whose length is
// --seconds times a nominal rate per workload, so two commits do the same
// work and finish with the same stored state; the seed changes order and
// content, never the mix. Times and rates are scaled to a nominal host
// speed measured alongside (speed.go). With --trace 0 the end-to-end
// metrics are reported; with --trace 1 the benchmark's own wrappers record
// spans around every call into a layer and the per-layer metrics plus a
// layer self-time table are reported instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each run builds its environment at least minSetups times, and more while
// the builds so far took under setupBudget, up to maxSetups. setup_s
// reports the median, so one slow set-up does not move the metric; every
// build but the last is torn down again.
const (
	minSetups   = 7
	maxSetups   = 50
	setupBudget = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	// data is this run's private data directory inside the checkout; it is
	// removed when the run ends.
	data string
	// fs records the filesystem type of each data directory the workload
	// uses, for the environment record.
	fs map[string]string
}

// outcome is what a workload returns: its metrics, its operation counts and
// every correctness problem found.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// info holds what the record carries besides metrics (sample counts,
	// raw values).
	info map[string]any
	// speed is the measured phase's host speed factor (see speed.go).
	speed float64
	// atts is the traced run's self-time accounting, rendered as the layer
	// table once the metrics are normalized.
	atts []attribution
}

func (o *outcome) note(key string, v any) {
	if o.info == nil {
		o.info = map[string]any{}
	}
	o.info[key] = v
}

// normalize scales the measured phase's times and rates to the nominal
// host speed, keeping the raw values in the record. setup_s is scaled by
// repeatSetup, per set-up.
func (o *outcome) normalize() {
	if o.speed <= 0 {
		return
	}
	raw := map[string]float64{}
	for name, m := range o.metrics {
		if name == "setup_s" {
			continue
		}
		switch m.Unit {
		case "ms", "s", "ns":
			raw[name] = m.Value
			m.Value /= o.speed
		case "1/s":
			raw[name] = m.Value
			m.Value *= o.speed
		}
		o.metrics[name] = m
	}
	o.note("speed_factor", o.speed)
	o.note("raw", raw)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloadFuncs = map[string]func(runConfig) (*outcome, error){
	"vm-offline":        runVMOffline,
	"ingest-replicated": runIngestReplicated,
	"session-churn":     runSessionChurn,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: vm-offline, ingest-replicated or session-churn")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "nominal measured seconds; sizes the fixed operation list")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloadFuncs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := benchmark(*name, run, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is where run.sh puts the binary; runs keep their data and their
// result records beneath it.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func benchmark(name string, run func(runConfig) (*outcome, error), seed int64, seconds int, traced bool) error {
	root, err := filepath.Abs(buildDir())
	if err != nil {
		return err
	}
	data, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return fmt.Errorf("creating the run's data directory: %w", err)
	}
	defer os.RemoveAll(data)
	// The daemon creates its scratch checkpoint directories in the default
	// temporary directory; keep them inside this run's data.
	if err := os.Setenv("TMPDIR", data); err != nil {
		return err
	}

	cfg := runConfig{seed: seed, seconds: seconds, traced: traced, data: data, fs: map[string]string{}}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	out.normalize()
	var table string
	if traced {
		table = layerTable(name, out.atts, out.metrics)
		out.metrics = pick(out.metrics, perLayerNames())
	} else {
		out.metrics = pick(out.metrics, endToEndNames)
	}

	env := environment(seed, cfg.fs)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	fmt.Print(table)
	record := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "traced": traced, "env": env, "info": out.info, "result": res}
	if err := saveRecord(root, name, seed, traced, record); err != nil {
		return err
	}
	envLine, err := json.Marshal(map[string]any{"env": env, "info": out.info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	return nil
}

var endToEndNames = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "events_per_s", "read_p50_ms", "read_p90_ms"}

func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

// saveRecord keeps every result with its environment under
// <build>/results, one file per (workload, seed, mode).
func saveRecord(root, name string, seed int64, traced bool, record map[string]any) error {
	dir := filepath.Join(root, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, mode)), data, 0o644)
}

// lastUntraced loads the most recent untraced result of a workload, for
// the traced run's overhead comparison.
func lastUntraced(name string) (map[string]metric, bool) {
	root, err := filepath.Abs(buildDir())
	if err != nil {
		return nil, false
	}
	files, _ := filepath.Glob(filepath.Join(root, "results", name+"-seed*-trace0.json"))
	var newest string
	var newestT time.Time
	for _, f := range files {
		if st, err := os.Stat(f); err == nil && st.ModTime().After(newestT) {
			newest, newestT = f, st.ModTime()
		}
	}
	if newest == "" {
		return nil, false
	}
	raw, err := os.ReadFile(newest)
	if err != nil {
		return nil, false
	}
	var rec struct {
		Result result `json:"result"`
	}
	if json.Unmarshal(raw, &rec) != nil {
		return nil, false
	}
	return rec.Result.Metrics, true
}

// environment is the host record every result carries.
func environment(seed int64, fs map[string]string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"seed":       seed,
		"data_fs":    fs,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// resetPeakRSS restarts the kernel's record of the process's peak resident
// set size, so that peakRSSMB covers the measured phase, not the set-ups.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since resetPeakRSS (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureStart marks the start of a measured phase.
func measureStart() (runtimeSample, error) {
	return readRuntime(), resetPeakRSS()
}

// repeatSetup builds the environment repeatedly and returns the last build
// with the median build time in seconds, each scaled to the nominal host
// speed probed just before and after it. Earlier builds are closed.
func repeatSetup[T any](o *outcome, build func(i int) (T, error), closeEnv func(T)) (T, float64, error) {
	var env T
	var times, raw []float64
	var spent time.Duration
	for i := 0; ; i++ {
		sp := newSpeedometer()
		for j := 0; j < setupProbes/2; j++ {
			sp.probe()
		}
		t0 := time.Now()
		e, err := build(i)
		if err != nil {
			return env, 0, err
		}
		d := time.Since(t0)
		for j := 0; j < setupProbes/2; j++ {
			sp.probe()
		}
		spent += d
		raw = append(raw, d.Seconds())
		times = append(times, d.Seconds()/sp.factor())
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			env = e
			break
		}
		closeEnv(e)
		runtime.GC()
	}
	o.note("setup_s_raw", raw)
	return env, median(times), nil
}

// quantile returns the q-quantile of xs with linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies records per-operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// rate is operations per second of time spent in the operations: the
// closed loop's throughput, without the benchmark's own checks and probes
// between operations.
func (l latencies) rate(perOp float64) float64 {
	var total float64
	for _, v := range l {
		total += v
	}
	return perOp * float64(len(l)) / (total / 1000)
}

// report sets <prefix>_p50_ms and <prefix>_p90_ms and records the sample
// count. p90 needs at least 100 samples so that ten lie beyond it, which
// --seconds 20 gives every workload.
func (l latencies) report(o *outcome, prefix string) {
	if len(l) < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s: only %d samples, p90 needs 100\n", prefix, len(l))
	}
	o.set(prefix+"_p50_ms", quantile(l, 0.5), "ms")
	o.set(prefix+"_p90_ms", quantile(l, 0.9), "ms")
	o.note(prefix+"_samples", len(l))
}

// runtimeSample reads the Go runtime counters the per-layer runtime
// metrics are deltas of.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// readAllocBytes reads only the cumulative heap allocation, cheap enough
// to call around single layer calls.
func readAllocBytes() float64 {
	s := []metrics.Sample{{Name: runtimeMetricNames[0]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// setRuntime reports the runtime metrics over the measured phase, which
// has just ended.
func setRuntime(o *outcome, before, after runtimeSample, ops int) {
	// The peak resident set of a 20 MB process moves with the timing of
	// garbage collection by 10-20% between runs, too much to bound; it is
	// kept as a per-layer metric and in the record.
	rss := peakRSSMB()
	o.set("runtime.peak_rss_mb", rss, "MB")
	o.note("peak_rss_mb", rss)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, "fraction")
	}
	if ops > 0 {
		o.set("runtime.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/float64(ops)/(1<<20), "MB")
	}
}
