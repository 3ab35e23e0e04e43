package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints. Every workload
// reports every one of them; light/heavy are the workload's two load
// points (sim-cnn: the small and the large model; serve-*: the low and
// the high arrival rate). README.md maps them to what a user waits for.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"macs_per_s", "MAC/s"},
	{"light_p50_ms", "ms"},
	{"light_tail_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"heavy_tail_ms", "ms"},
}

// coreKindNames are the chip mappings the core metrics break down by.
var coreKindNames = [...]string{"conv", "depthwise", "pointwise", "fc", "gemm"}

// perLayer are the metrics a traced run prints, one group per layer of
// the stack (core, guard, fleet, nn, journal) plus the load generator
// and the cost of tracing itself.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, k := range coreKindNames {
		out = append(out,
			metricDef{"core." + k + ".calls", "count"},
			metricDef{"core." + k + ".busy_ms", "ms"},
			metricDef{"core." + k + ".macs_per_s", "MAC/s"})
	}
	return append(out,
		metricDef{"core.ns_per_cycle", "ns"},
		metricDef{"core.weight_reuse", "frac"},
		metricDef{"guard.self_ms", "ms"},
		metricDef{"guard.checks", "count"},
		metricDef{"guard.fallback_frac", "frac"},
		metricDef{"fleet.ops", "count"},
		metricDef{"fleet.shed", "count"},
		metricDef{"fleet.wait_p50_ms", "ms"},
		metricDef{"fleet.wait_tail_ms", "ms"},
		metricDef{"nn.digital_self_ms", "ms"},
		metricDef{"journal.records_per_s", "1/s"},
		metricDef{"journal.dropped_frac", "frac"},
		metricDef{"journal.drain_ms", "ms"},
		metricDef{"gen.late_tail_ms", "ms"},
		metricDef{"gen.backlog_end", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick attaches units to the values of defs; a missing value is an
// error in the workload, reported by the caller.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
