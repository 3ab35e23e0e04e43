// Command albireo-bench turns `go test -bench -benchmem` output into
// a machine-readable JSON artifact and gates allocation regressions on
// the analog hot path.
//
// The zero-allocation contract (internal/core/alloc_test.go) is
// enforced per function by AllocsPerRun; this tool enforces it per
// benchmark at the CI boundary: check.sh pipes the hot benchmarks
// through it, archives the JSON, and fails the build when a
// benchmark's allocs/op grows past the committed baseline. Only
// allocs/op is gated - it is deterministic at a fixed -benchtime=Nx,
// while ns/op on shared CI hardware is too noisy to gate and is
// reported for trending only.
//
// Repeated lines of one benchmark (go test -count N) fold into one
// result: the median ns/op with its median absolute deviation (MAD)
// as the noise band, and the largest allocs/op and B/op of any run, so
// every run must pass the gate.
//
// Usage:
//
//	go test -run '^$' -bench Functional -benchmem -benchtime 50x -count 5 . |
//	    albireo-bench -json BENCH_core.json -baseline bench_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "albireo-bench:", err)
		os.Exit(1)
	}
}

// Result is one benchmark's measurement, folded over its runs.
type Result struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix, e.g.
	// "BenchmarkFunctionalConv" or "BenchmarkFleetInfer/pool2".
	Name string `json:"name"`
	// Runs is the number of result lines folded in (go test -count).
	Runs int `json:"runs,omitempty"`
	// Iterations is the b.N of the first measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median wall time per iteration over the runs
	// (reported, never gated).
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpMAD is the median absolute deviation of ns/op over the
	// runs: the noise band of NsPerOp (0 for a single run).
	NsPerOpMAD float64 `json:"ns_per_op_mad,omitempty"`
	// BytesPerOp is the largest heap bytes per iteration of any run
	// (-benchmem).
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is the largest heap allocations per iteration of any
	// run (-benchmem); the gated quantity.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the JSON artifact schema, shared by BENCH_core.json and
// the committed baseline.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("albireo-bench", flag.ContinueOnError)
	inPath := fs.String("in", "-", "benchmark output to parse (- for stdin)")
	jsonPath := fs.String("json", "", "write the parsed results as JSON to this file")
	baseline := fs.String("baseline", "", "baseline JSON; fail if any baseline benchmark's allocs/op regresses")
	slack := fs.Float64("alloc-slack", 0.10, "fractional allocs/op headroom over the baseline (plus 1 absolute) before failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			return err
		}
	}
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(out, "%-44s %12.0f ns/op ±%-10.0f %10.0f B/op %8.1f allocs/op  (%d runs)\n",
			r.Name, r.NsPerOp, r.NsPerOpMAD, r.BytesPerOp, r.AllocsPerOp, r.Runs)
	}
	if *baseline != "" {
		return gate(out, rep, *baseline, *slack)
	}
	return nil
}

// parse extracts benchmark result lines from go test output and folds
// repeated lines of one benchmark into a single Result. Lines it does
// not recognize (headers, PASS, custom metrics it has no column for)
// are skipped, so the tool can consume a raw `go test` stream.
func parse(in io.Reader) (*Report, error) {
	runs := map[string][]Result{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: trimProcSuffix(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, rs := range runs {
		rep.Benchmarks = append(rep.Benchmarks, fold(rs))
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// fold summarizes the runs of one benchmark: median ns/op and its MAD,
// worst-case B/op and allocs/op.
func fold(rs []Result) Result {
	out := Result{Name: rs[0].Name, Runs: len(rs), Iterations: rs[0].Iterations}
	ns := make([]float64, len(rs))
	for i, r := range rs {
		ns[i] = r.NsPerOp
		out.BytesPerOp = math.Max(out.BytesPerOp, r.BytesPerOp)
		out.AllocsPerOp = math.Max(out.AllocsPerOp, r.AllocsPerOp)
	}
	out.NsPerOp = median(ns)
	for i := range ns {
		ns[i] = math.Abs(ns[i] - out.NsPerOp)
	}
	out.NsPerOpMAD = median(ns)
	return out
}

// median returns the median of xs, reordering xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// trimProcSuffix drops the trailing -GOMAXPROCS decoration go test
// appends to benchmark names, so names are stable across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// writeJSON writes the report with stable ordering and a trailing
// newline, so the artifact diffs cleanly when committed.
func writeJSON(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gate compares measured allocs/op against the committed baseline.
// Every baseline benchmark must be present in the measurement, and
// each may exceed its baseline allocs/op by at most slack (fractional)
// plus 1 absolute - enough headroom for runtime jitter at small
// counts, while still catching any real per-tile allocation leak
// (which costs thousands of allocs/op, not one).
func gate(out io.Writer, rep *Report, baselinePath string, slack float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	measured := make(map[string]Result, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		measured[r.Name] = r
	}
	var failures []string
	for _, b := range base.Benchmarks {
		m, ok := measured[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", b.Name))
			continue
		}
		limit := b.AllocsPerOp*(1+slack) + 1
		if m.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op exceeds baseline %.1f (limit %.1f)",
				b.Name, m.AllocsPerOp, b.AllocsPerOp, limit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "alloc gate: %d benchmarks within baseline\n", len(base.Benchmarks))
	return nil
}
