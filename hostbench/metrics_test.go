package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the metric names
// live in.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", layers, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !reflect.DeepEqual(names, known) {
		t.Errorf("BENCHMARK.json workloads = %v, benchmark runs %v", names, known)
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload briefly in
// both modes and checks the last output line names exactly the metrics
// BENCHMARK.json declares.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	want := map[string][]string{}
	for _, m := range b.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range b.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for _, w := range b.Workloads {
		for _, mode := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "2", "--trace", mode,
				"--trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s --trace %s exited %d:\n%s", w.Name, mode, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", w.Name, mode, err)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			exp := append([]string(nil), want[mode]...)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s --trace %s printed %v, BENCHMARK.json has %v", w.Name, mode, got, exp)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d", w.Name, mode, res.Correct, res.Attempted)
			}
		}
	}
}

func TestGoldenTableMatchesSimulator(t *testing.T) {
	golden, err := goldenHashes()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 1} {
		want, ok := golden[seed]
		if !ok {
			t.Fatalf("golden_simcnn.txt has no seed %d", seed)
		}
		if got := simPrefixHash(seed); got != want {
			t.Errorf("seed %d: simulator gives %s, golden_simcnn.txt has %s", seed, got, want)
		}
	}
}
