// Command hostbench is the repository's host-time benchmark: it runs
// the Albireo simulator and its serving fleet in-process through their
// public Go API and prints what a simulator user or a serving client
// waits for, in wall-clock time on the host it runs on.
//
//	bash hostbench/run.sh --workload sim-cnn --seed 1 --seconds 36 --trace 0
//
// Workloads are sim-cnn, serve-cnn and serve-gemm (README.md says why
// each exists). --trace 0 prints the end-to-end metrics; --trace 1
// runs the workload untraced and then traced, prints the per-layer
// metrics and the tracing overhead, and writes the spans as Chrome
// trace-event JSON. --calibrate measures a serve workload's closed-loop
// capacity, from which its committed rates derive. --golden N prints
// the sim-cnn logits hashes of seeds [0, N) for golden_simcnn.txt.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. failed counts shed, errored
// and wrong requests; a wrong output or an error other than shedding
// makes correct false and the command exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// procs is the host's core count the benchmark is sized for: one
// process with at most this many threads running Go code.
const procs = 2

// workloads maps a workload name to its measurement.
var workloads = map[string]func(options, *tracer) (*report, error){
	"sim-cnn":    runSimCNN,
	"serve-cnn":  runServeCNN,
	"serve-gemm": runServeGEMM,
}

// options are one measurement's settings.
type options struct {
	seed   int64
	span   time.Duration // measured time
	setups int           // set-ups made; setup_s is their median
}

// report is what a measurement found.
type report struct {
	attempted int
	failed    int // shed, errored or wrong
	wrong     int // wrong outputs and errors other than shedding
	values    map[string]float64
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// note adds a line to the human-readable summary on standard error.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxFailNotes caps how many failures the summary lists one by one.
const maxFailNotes = 20

// fail counts n failed operations and says why; wrong marks them as
// wrong outputs or errors, not requests the fleet shed under load.
func (r *report) fail(why string, n int, wrong bool) {
	r.failed += n
	if wrong {
		r.wrong += n
	}
	if r.failed-n < maxFailNotes {
		r.notes = append(r.notes, "FAIL "+why)
	}
}

// latency sets <prefix>_p50_ms and <prefix>_tail_ms and notes which
// percentile the tail is and how many samples it rests on.
func (r *report) latency(prefix, what string, d dist) {
	r.set(prefix+"_p50_ms", d.P50)
	r.set(prefix+"_tail_ms", d.Tail)
	tail := fmt.Sprintf("p%g over all", d.TailPct)
	if d.BlockTails != nil {
		tail = fmt.Sprintf("p%g, lowest of block tails %.1f", d.TailPct, d.BlockTails)
	}
	r.note("%s (%s): p50 %.3f ms (lowest of %d block p50s), tail (%s) %.3f ms, %d samples; p90 %.3f, p95 %.3f, p99 %.3f over all",
		prefix, what, d.P50, d.Blocks, tail, d.Tail, d.N, d.P90, d.P95, d.P99)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sim-cnn, serve-cnn or serve-gemm")
	seed := fs.Int64("seed", 1, "seed of every generated input and arrival schedule")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics and the tracing overhead")
	traceOut := fs.String("trace-out", "", "Chrome trace output of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	calibrate := fs.Bool("calibrate", false, "measure a serve workload's closed-loop capacity instead")
	golden := fs.Int("golden", 0, "print the sim-cnn logits hashes of seeds [0, N) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)

	if *golden > 0 {
		fmt.Fprintln(stdout, "# sim-cnn logits hashes: seed, then the SHA-256 of the first simPrefix")
		fmt.Fprintln(stdout, "# rounds of logits on a freshly set-up chip. Regenerate with")
		fmt.Fprintf(stdout, "#   bash hostbench/run.sh --golden %d > hostbench/golden_simcnn.txt\n", *golden)
		for s := int64(0); s < int64(*golden); s++ {
			fmt.Fprintf(stdout, "%d %s\n", s, simPrefixHash(s))
		}
		return 0
	}
	measure, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q (want sim-cnn, serve-cnn or serve-gemm)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "hostbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	span := time.Duration(*seconds) * time.Second
	if *calibrate {
		if err := runCalibrate(*workload, *seed, span, stdout); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}

	var rep *report
	var defs []metricDef
	var err error
	if *traced == 0 {
		defs = endToEnd
		rep, err = measure(options{seed: *seed, span: span, setups: 5}, nil)
	} else {
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		rep, err = measureTraced(measure, options{seed: *seed, span: span / 2, setups: 1}, path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	metrics, missing := pick(defs, rep.values)
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "hostbench: %s did not produce %v\n", *workload, missing)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, n)
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "FAIL %d of %d operations, %d of them wrong or errored rather than shed (at most %d listed above)\n",
			rep.failed, rep.attempted, rep.wrong, maxFailNotes)
	}
	for _, d := range defs {
		fmt.Fprintf(stderr, "%-28s %18.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !res.Correct {
		return 1
	}
	return 0
}

// measureTraced runs the workload untraced and then traced for o.span
// each, and reports the traced run's per-layer metrics with the
// tracing overhead: how much the traced run's heavy p50 exceeds the
// untraced one's.
func measureTraced(measure func(options, *tracer) (*report, error), o options, path string) (*report, error) {
	plain, err := measure(o, nil)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	rep, err := measure(o, t)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if _, ok := rep.values[d.Name]; !ok {
			rep.values[d.Name] = 0 // a layer this workload does not use
		}
	}
	base := plain.values["heavy_p50_ms"]
	if !(base > 0) {
		return nil, errors.New("untraced run measured no heavy latency")
	}
	rep.values["trace.overhead_pct"] = 100 * (rep.values["heavy_p50_ms"] - base) / base
	rep.note("tracing overhead: heavy p50 %.3f ms traced vs %.3f ms untraced", rep.values["heavy_p50_ms"], base)
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	rep.wrong += plain.wrong
	rep.notes = append(plain.notes, rep.notes...)
	if err := t.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.note("trace: %s", path)
	return rep, nil
}
