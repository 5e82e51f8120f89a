// Command benchdiff compares `go test -bench` output against a committed
// JSON baseline and prints a regression table.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./internal/... > bench.txt
//	go run ./internal/tools/benchdiff [-baseline BENCH_core.json] bench.txt
//	go run ./internal/tools/benchdiff -update bench.txt   # write new baseline
//
// With no file argument the bench output is read from stdin. The comparison
// is on ns/op with a ±threshold band (default 15%): benchmarks faster than
// baseline-threshold are reported as improved, slower than
// baseline+threshold as REGRESSION, everything in between as ok. B/op and
// allocs/op are carried in the baseline and table for context but do not
// trigger regressions (allocation counts are stable; timing is the noisy
// signal the band exists for).
//
// The baseline records the host it was measured on: the cpu line of the
// bench header, the GOMAXPROCS suffix of the benchmark names, and the
// machine's CPU count. A run at a different GOMAXPROCS is reported as
// incomparable instead of being diffed: the profiler and pipeline numbers
// move with core count by far more than the band.
//
// The exit code is 0 even when regressions are found or the run is
// incomparable, so the CI step is non-blocking (shared CI runners are too
// noisy for a hard gate); -exit-code turns either into exit 1 for local
// enforcement.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Baseline is the schema of BENCH_core.json.
type Baseline struct {
	Description  string  `json:"description"`
	Date         string  `json:"date"`
	ThresholdPct float64 `json:"threshold_pct"`
	Command      string  `json:"command"`
	Host
	Benchmarks []Bench `json:"benchmarks"`
}

// Host identifies the machine a set of results was measured on.
type Host struct {
	// CPU is the `cpu:` line of the bench header ("" if absent).
	CPU string `json:"cpu,omitempty"`
	// NProc is the machine's CPU count, taken by benchdiff itself when it
	// writes the baseline (the bench header does not carry it).
	NProc int `json:"nproc,omitempty"`
	// GOMAXPROCS is the -N suffix of the benchmark names, 1 when absent.
	// A baseline without it (0) predates host recording and is comparable
	// with nothing.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// Bench is one benchmark's baseline numbers.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// errFailed is run's result when -exit-code asks for exit 1 on a
// regression or an incomparable run; the report is already printed.
var errFailed = errors.New("regression or incomparable run (-exit-code)")

// run is the command with its arguments, input and output injected.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_core.json", "baseline file to compare against (and to write with -update)")
		update       = fs.Bool("update", false, "write the parsed results as the new baseline instead of comparing")
		threshold    = fs.Float64("threshold", 0, "ns/op regression threshold in percent (0 = the baseline's own, default 15)")
		exitCode     = fs.Bool("exit-code", false, "exit 1 when a regression is found or the run is incomparable (default: report only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if fs.NArg() > 1 {
		return fmt.Errorf("at most one bench-output file (got %d)", fs.NArg())
	}

	results, host, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	host.NProc = runtime.NumCPU()

	if *update {
		pct := *threshold
		if pct == 0 {
			pct = 15
		}
		base := Baseline{
			Description:  "ns/op baseline for the core/shadow/profio/obs/vm benchmarks, checked by `make bench` via internal/tools/benchdiff (non-blocking in CI).",
			Date:         time.Now().UTC().Format("2006-01-02"),
			ThresholdPct: pct,
			Command:      "make bench-baseline",
			Host:         host,
			Benchmarks:   results,
		}
		if err := writeBaseline(*baselinePath, base); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %s (%d benchmarks, GOMAXPROCS=%d, nproc=%d, cpu %q)\n",
			*baselinePath, len(results), host.GOMAXPROCS, host.NProc, host.CPU)
		return nil
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return fmt.Errorf("%w (run with -update to create the baseline)", err)
	}
	pct := *threshold
	if pct == 0 {
		pct = base.ThresholdPct
	}
	if pct == 0 {
		pct = 15
	}
	failed := !comparable(stdout, base, host) || diff(stdout, base, results, pct) > 0
	if failed && *exitCode {
		return errFailed
	}
	return nil
}

// comparable reports whether results measured on host may be diffed against
// base. When they may not, it prints why instead of a table. A different
// cpu model or CPU count at the same GOMAXPROCS is noted but still compared.
func comparable(w io.Writer, base Baseline, host Host) bool {
	if base.GOMAXPROCS != host.GOMAXPROCS {
		fmt.Fprintf(w, "benchdiff: incomparable: baseline %s was measured at GOMAXPROCS=%d (nproc=%d, cpu %q), this run at GOMAXPROCS=%d (cpu %q); re-measure the baseline on this host (make bench-baseline)\n",
			base.Date, base.GOMAXPROCS, base.NProc, base.CPU, host.GOMAXPROCS, host.CPU)
		return false
	}
	if base.CPU != host.CPU || base.NProc != host.NProc {
		fmt.Fprintf(w, "benchdiff: note: baseline host nproc=%d cpu %q, this host nproc=%d cpu %q\n",
			base.NProc, base.CPU, host.NProc, host.CPU)
	}
	return true
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName-8   1000   1234 ns/op   56 B/op   7 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix is the trailing -N the bench runner appends to names
// when GOMAXPROCS > 1.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench extracts (name, ns/op, B/op, allocs/op) from bench output,
// plus the host's cpu line and GOMAXPROCS (NProc is left to the caller).
// Other per-op metrics (MB/s, custom events/op) are ignored. Duplicate names
// (e.g. -count>1) keep the minimum ns/op, the standard noise-robust choice.
// Results at mixed GOMAXPROCS (e.g. -cpu 1,2) are refused.
func parseBench(r io.Reader) ([]Bench, Host, error) {
	var host Host
	byName := make(map[string]Bench)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			host.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if s := gomaxprocsSuffix.FindStringSubmatch(m[1]); s != nil {
			procs, _ = strconv.Atoi(s[1])
		}
		if host.GOMAXPROCS != 0 && procs != host.GOMAXPROCS {
			return nil, host, fmt.Errorf("benchmark %s: mixed GOMAXPROCS (%d and %d) in one run", m[1], host.GOMAXPROCS, procs)
		}
		host.GOMAXPROCS = procs
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		b := Bench{Name: name, NsPerOp: -1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, host, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if b.NsPerOp < 0 {
			continue
		}
		if prev, ok := byName[name]; !ok || b.NsPerOp < prev.NsPerOp {
			byName[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, host, err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Bench, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out, host, nil
}

// diff prints the comparison table and returns the number of regressions.
func diff(w io.Writer, base Baseline, results []Bench, thresholdPct float64) int {
	baseline := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	seen := make(map[string]bool, len(results))

	fmt.Fprintf(w, "benchdiff: ns/op vs %s (±%.0f%%)\n", base.Date, thresholdPct)
	fmt.Fprintf(w, "%-52s %14s %14s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "verdict")
	regressions := 0
	for _, r := range results {
		seen[r.Name] = true
		old, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %8s  new (no baseline)\n", r.Name, "-", r.NsPerOp, "-")
			continue
		}
		delta := (r.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		verdict := "ok"
		switch {
		case delta > thresholdPct:
			verdict = "REGRESSION"
			regressions++
		case delta < -thresholdPct:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+7.1f%%  %s\n", r.Name, old.NsPerOp, r.NsPerOp, delta, verdict)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "%-52s %14.0f %14s %8s  missing from run\n", b.Name, b.NsPerOp, "-", "-")
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchdiff: %d regression(s) beyond ±%.0f%% — rerun on an idle machine before trusting, then investigate or refresh the baseline (make bench-baseline)\n", regressions, thresholdPct)
	} else {
		fmt.Fprintf(w, "benchdiff: no ns/op regressions beyond ±%.0f%%\n", thresholdPct)
	}
	return regressions
}

func readBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

func writeBaseline(path string, base Baseline) error {
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
