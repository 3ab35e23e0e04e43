package core

import (
	"fmt"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

// Metric names the chip emits. Every counter carries a plcg="<index>"
// label so activity is attributable to the hardware block that did
// the work; obs.Snapshot.SumCounters aggregates across groups.
const (
	// MetricMZMPrograms counts weight-MZM reprogramming events: one
	// per weight MZM per PLCG step per active PLCU (the DACs retarget
	// every cycle in the depth-first dataflow, Section III-B).
	MetricMZMPrograms = "albireo_mzm_program_events_total"
	// MetricMRRSwitches counts switching-MRR routing events: each tap
	// drives one ring of its (positive, negative) pair per PD column.
	MetricMRRSwitches = "albireo_mrr_switch_events_total"
	// MetricPDReads counts balanced-photodiode differential reads:
	// one per PD column per active PLCU per step (Eq. 4).
	MetricPDReads = "albireo_pd_read_events_total"
	// MetricADCConversions counts aggregation-unit ADC conversions:
	// Nd per PLCG step (the shared ADC digitizes after the analog
	// cross-PLCU reduction).
	MetricADCConversions = "albireo_adc_conversion_events_total"
	// MetricPLCGSteps counts PLCG cycles (calls into PLCG.Step).
	MetricPLCGSteps = "albireo_plcg_steps_total"
	// MetricLayerOps counts layer executions by mapping kind
	// (label kind="conv|depthwise|pointwise|fc|gemm").
	MetricLayerOps = "albireo_layer_ops_total"
	// MetricFaultsInjected counts injected hardware defects.
	MetricFaultsInjected = "albireo_faults_injected_total"
	// MetricQuarantinedUnits counts Chip.Quarantine calls that took a
	// PLCU out of service.
	MetricQuarantinedUnits = "albireo_quarantined_units_total"
	// MetricRemappedKernels counts kernel (or depthwise-channel) tiles
	// scheduled onto a different PLCG than the healthy round-robin
	// would have used - the work the quarantine scheduler moved.
	MetricRemappedKernels = "albireo_remapped_kernels_total"
)

// chipObs holds the chip's resolved instruments. The per-PLCG counter
// slices are resolved once at attach time so the hot path is a slice
// index plus an atomic add; when only a trace (or only a registry) is
// attached the other side's instruments are nil and inert.
type chipObs struct {
	nm, nd int64

	steps []*obs.Counter
	mzm   []*obs.Counter
	mrr   []*obs.Counter
	pd    []*obs.Counter
	adc   []*obs.Counter

	layerOps    map[string]*obs.Counter
	faults      *obs.Counter
	quarantines *obs.Counter
	remaps      *obs.Counter

	trace *obs.Trace
}

// Instrument attaches an observability registry and/or trace to the
// chip. Either may be nil; passing both nil detaches instrumentation
// entirely, restoring the bare hot path (a single pointer check per
// PLCG step). Counters are cycle/event-denominated and never consult
// a wall clock, so two runs of a layer on the same inputs produce
// bit-identical registry snapshots although the PLCGs record from
// concurrent goroutines.
func (c *Chip) Instrument(reg *obs.Registry, trace *obs.Trace) {
	if reg == nil && trace == nil {
		c.ins = nil
		return
	}
	ins := &chipObs{
		nm:          int64(c.cfg.Nm),
		nd:          int64(c.cfg.Nd),
		faults:      reg.Counter(MetricFaultsInjected),
		quarantines: reg.Counter(MetricQuarantinedUnits),
		remaps:      reg.Counter(MetricRemappedKernels),
		trace:       trace,
	}
	perGroup := func(name string) []*obs.Counter {
		cs := make([]*obs.Counter, c.cfg.Ng)
		for gi := range cs {
			cs[gi] = reg.Counter(name, obs.L("plcg", fmt.Sprintf("%d", gi)))
		}
		return cs
	}
	ins.steps = perGroup(MetricPLCGSteps)
	ins.mzm = perGroup(MetricMZMPrograms)
	ins.mrr = perGroup(MetricMRRSwitches)
	ins.pd = perGroup(MetricPDReads)
	ins.adc = perGroup(MetricADCConversions)
	ins.layerOps = map[string]*obs.Counter{}
	for _, kind := range []string{"conv", "depthwise", "pointwise", "fc", "gemm"} {
		ins.layerOps[kind] = reg.Counter(MetricLayerOps, obs.L("kind", kind))
	}
	c.ins = ins
}

// step records the device activity of one PLCG.Step call on group gi
// with nu active PLCUs: nu*Nm weight MZMs reprogram, each active tap
// routes one ring of its pair per PD column (nu*Nm*Nd switch events),
// nu*Nd balanced pairs are read, and the group's shared ADC performs
// Nd conversions.
func (o *chipObs) step(gi, nu int) {
	n := int64(nu)
	o.steps[gi].Add(1)
	o.mzm[gi].Add(n * o.nm)
	o.mrr[gi].Add(n * o.nm * o.nd)
	o.pd[gi].Add(n * o.nd)
	o.adc[gi].Add(o.nd)
}

// beginLayer opens a layer span and bumps the per-kind op counter.
// Safe on a nil receiver so call sites stay one branch.
func (o *chipObs) beginLayer(kind string, m, z, ky, kx int) *obs.Span {
	if o == nil {
		return nil
	}
	o.layerOps[kind].Add(1)
	return o.trace.StartSpan("chip/"+kind,
		obs.String("kind", kind),
		obs.Int("kernels", int64(m)),
		obs.String("kernel_shape", fmt.Sprintf("%dx%dx%d", z, ky, kx)))
}

// tile records one kernel being scheduled onto a PLCG. Span events
// are mutex-serialized, so the layer fan-out may emit them from its
// per-group goroutines; the arrival order differs run to run but the
// event names and counts do not.
func (o *chipObs) tile(sp *obs.Span, m, gi int) {
	if o == nil || o.trace == nil {
		return
	}
	//lint:ignore hotpath-alloc-proof trace-gated: runs only with a trace attached, once per tile (not per cycle); attr packing is the Span API
	sp.Event(obs.TileScheduled, "tile", obs.Int("kernel", int64(m)), obs.Int("plcg", int64(gi)))
}

// InjectFault injects a defect into PLCU unit of PLCG group and
// records it in the chip's trace and fault counter when attached.
// Group and unit must be in range (it shares the PLCU's own
// invariant panics for tap/column).
func (c *Chip) InjectFault(group, unit int, f Fault) error {
	if group < 0 || group >= c.cfg.Ng {
		return fmt.Errorf("core: fault group %d out of range [0,%d)", group, c.cfg.Ng)
	}
	if unit < 0 || unit >= c.cfg.Nu {
		return fmt.Errorf("core: fault unit %d out of range [0,%d)", unit, c.cfg.Nu)
	}
	c.groups[group].units[unit].InjectFault(f)
	if c.ins != nil {
		c.ins.faults.Add(1)
		if c.ins.trace != nil {
			sp := c.ins.trace.StartSpan("chip/fault")
			sp.Event(obs.FaultInjected, f.Kind.String(),
				obs.Int("plcg", int64(group)),
				obs.Int("plcu", int64(unit)),
				obs.Int("tap", int64(f.Tap)),
				obs.Int("column", int64(f.Column)))
			sp.End()
		}
	}
	return nil
}

// Activity is the closed-form expectation of per-device-class event
// counts for one layer - the analytic mirror of the counters the
// functional simulator records. Reports compare observed counters
// against these expectations to validate the energy model's activity
// factors against what the modeled chip actually did.
type Activity struct {
	Steps          int64
	MZMPrograms    int64
	MRRSwitches    int64
	PDReads        int64
	ADCConversions int64
}

// ExpectedConvActivity computes the Activity of a dense convolution
// of m ky-by-kx kernels over a z-by-ay-by-ax input at the given
// stride and pad, mirroring the Algorithm 2 loop nest exactly: for
// every kernel, output row, and column tile, each channel group
// contributes one step per tap chunk with min(Nu, remaining) active
// PLCUs.
func (c Config) ExpectedConvActivity(z, ay, ax, m, ky, kx, stride, pad int) Activity {
	if stride <= 0 {
		stride = 1
	}
	by := int64(tensor.ConvOutputDim(ay, ky, pad, stride))
	bx := int64(tensor.ConvOutputDim(ax, kx, pad, stride))
	tiles := ceilDiv(bx, int64(c.Nd))
	chunks := ceilDiv(int64(ky)*int64(kx), int64(c.Nm))
	zSteps := ceilDiv(int64(z), int64(c.Nu))

	perKernel := by * tiles * chunks // steps per channel group sweep position
	steps := int64(m) * perKernel * zSteps
	// Summing min(Nu, z-z0) over the channel-group loop yields exactly
	// z active PLCU-steps per (kernel, tile, chunk).
	activeUnits := int64(m) * perKernel * int64(z)

	return Activity{
		Steps:          steps,
		MZMPrograms:    activeUnits * int64(c.Nm),
		MRRSwitches:    activeUnits * int64(c.Nm) * int64(c.Nd),
		PDReads:        activeUnits * int64(c.Nd),
		ADCConversions: steps * int64(c.Nd),
	}
}

// ObservedActivity extracts the chip-wide Activity totals from a
// registry snapshot (summing the per-PLCG counters).
func ObservedActivity(s obs.Snapshot) Activity {
	return Activity{
		Steps:          s.SumCounters(MetricPLCGSteps),
		MZMPrograms:    s.SumCounters(MetricMZMPrograms),
		MRRSwitches:    s.SumCounters(MetricMRRSwitches),
		PDReads:        s.SumCounters(MetricPDReads),
		ADCConversions: s.SumCounters(MetricADCConversions),
	}
}
