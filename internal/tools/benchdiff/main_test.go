package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: aprof/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProfilerDeepStacks-1   	     100	  10000000 ns/op	 500000 B/op	    2000 allocs/op
BenchmarkStoreDense-1           	 2000000	       600 ns/op	       0 B/op	       0 allocs/op
BenchmarkStoreDense-1           	 2000000	       550 ns/op	       0 B/op	       0 allocs/op
BenchmarkStream/sub-1           	    1000	   2000000 ns/op	       9.83 MB/s	    1000 B/op	      50 allocs/op
PASS
ok  	aprof/internal/core	3.1s
`

func TestParseBench(t *testing.T) {
	results, host, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if host.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || host.GOMAXPROCS != 1 {
		t.Errorf("host = %+v, want the header's cpu and GOMAXPROCS 1", host)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(results), results)
	}
	byName := make(map[string]Bench)
	for _, b := range results {
		byName[b.Name] = b
	}
	// The -1 GOMAXPROCS suffix is stripped; duplicates keep the minimum.
	if b := byName["BenchmarkStoreDense"]; b.NsPerOp != 550 {
		t.Errorf("StoreDense ns/op = %v, want 550 (min of duplicates)", b.NsPerOp)
	}
	// Sub-benchmark names survive; non-ns metrics (MB/s) are skipped.
	if b := byName["BenchmarkStream/sub"]; b.NsPerOp != 2000000 || b.AllocsPerOp != 50 {
		t.Errorf("Stream/sub = %+v", b)
	}
	if b := byName["BenchmarkProfilerDeepStacks"]; b.BPerOp != 500000 {
		t.Errorf("DeepStacks B/op = %v", b.BPerOp)
	}
}

func TestDiffVerdicts(t *testing.T) {
	base := Baseline{
		Date:         "2026-08-06",
		ThresholdPct: 15,
		Benchmarks: []Bench{
			{Name: "BenchmarkSame", NsPerOp: 1000},
			{Name: "BenchmarkSlower", NsPerOp: 1000},
			{Name: "BenchmarkFaster", NsPerOp: 1000},
			{Name: "BenchmarkGone", NsPerOp: 1000},
		},
	}
	results := []Bench{
		{Name: "BenchmarkSame", NsPerOp: 1100},   // +10%: within band
		{Name: "BenchmarkSlower", NsPerOp: 1300}, // +30%: regression
		{Name: "BenchmarkFaster", NsPerOp: 700},  // -30%: improved
		{Name: "BenchmarkNew", NsPerOp: 42},      // not in baseline
	}
	var out bytes.Buffer
	regressions := diff(&out, base, results, 15)
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	table := out.String()
	for _, want := range []string{
		"BenchmarkSame", "ok",
		"BenchmarkSlower", "REGRESSION",
		"BenchmarkFaster", "improved",
		"BenchmarkNew", "new (no baseline)",
		"BenchmarkGone", "missing from run",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestParseBenchEmpty(t *testing.T) {
	results, _, err := parseBench(strings.NewReader("PASS\nok \tpkg\t1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("parsed %d from benchless input", len(results))
	}
}

// TestParseBenchGOMAXPROCS reads GOMAXPROCS from the name suffix (1 when
// there is none) and refuses a run that mixes several.
func TestParseBenchGOMAXPROCS(t *testing.T) {
	_, host, err := parseBench(strings.NewReader("BenchmarkA-2  10  100 ns/op\nBenchmarkB/8-2  10  100 ns/op\n"))
	if err != nil || host.GOMAXPROCS != 2 {
		t.Errorf("GOMAXPROCS = %d (err %v), want 2", host.GOMAXPROCS, err)
	}
	_, host, err = parseBench(strings.NewReader("BenchmarkA  10  100 ns/op\n"))
	if err != nil || host.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed GOMAXPROCS = %d (err %v), want 1", host.GOMAXPROCS, err)
	}
	if _, _, err := parseBench(strings.NewReader("BenchmarkA-1  10  100 ns/op\nBenchmarkA-2  10  90 ns/op\n")); err == nil {
		t.Error("mixed GOMAXPROCS accepted")
	}
}

// TestIncomparableGOMAXPROCS runs the command against a baseline recorded
// at another GOMAXPROCS: it must print "incomparable" and no table, exit 0
// by default, and fail only under -exit-code. The run is far slower than
// the baseline, so a table would have reported a regression.
func TestIncomparableGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH.json")
	base := Baseline{Date: "2026-08-06", ThresholdPct: 15, Host: Host{CPU: "old", NProc: 1, GOMAXPROCS: 1},
		Benchmarks: []Bench{{Name: "BenchmarkX", NsPerOp: 100}}}
	if err := writeBaseline(basePath, base); err != nil {
		t.Fatal(err)
	}
	input := "cpu: new\nBenchmarkX-2  10  500 ns/op\n"
	for _, exit := range []bool{false, true} {
		args := []string{"-baseline", basePath}
		if exit {
			args = append(args, "-exit-code")
		}
		var out bytes.Buffer
		err := run(args, strings.NewReader(input), &out)
		if got := out.String(); !strings.Contains(got, "incomparable") || strings.Contains(got, "REGRESSION") {
			t.Errorf("exit-code=%v: output %q, want the incomparable notice and no table", exit, got)
		}
		if exit && !errors.Is(err, errFailed) {
			t.Errorf("-exit-code: err = %v, want errFailed", err)
		}
		if !exit && err != nil {
			t.Errorf("default: err = %v, want nil (report only)", err)
		}
	}
	// Same GOMAXPROCS: compared, and the regression is found.
	var out bytes.Buffer
	if err := run([]string{"-baseline", basePath, "-exit-code"}, strings.NewReader("cpu: old\nBenchmarkX  10  500 ns/op\n"), &out); !errors.Is(err, errFailed) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("same GOMAXPROCS: err = %v, output %q, want a regression", err, out.String())
	}
}

// TestUpdateRecordsHost checks that -update writes the header's cpu, the
// GOMAXPROCS suffix and the machine's CPU count into the baseline.
func TestUpdateRecordsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-baseline", path, "-update"}, strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	base, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || base.GOMAXPROCS != 1 || base.NProc < 1 {
		t.Errorf("recorded host = %+v", base.Host)
	}
	if _, err := os.Stat(path); err != nil || len(base.Benchmarks) != 3 {
		t.Errorf("baseline has %d benchmarks (stat err %v), want 3", len(base.Benchmarks), err)
	}
}
