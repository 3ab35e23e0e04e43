package core

import (
	"testing"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func instrumentedChip(t *testing.T) (*Chip, *obs.Registry, *obs.Trace) {
	t.Helper()
	chip := NewChip(DefaultConfig())
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	chip.Instrument(reg, tr)
	return chip, reg, tr
}

// TestConvVsConcurrentTelemetryIdentical is the determinism invariant
// from the observability contract: Conv drives its PLCGs from
// concurrent goroutines, yet two runs on the same inputs must produce
// the serial-era output bits, bit-identical registry snapshots and
// identical per-kind trace event counts.
func TestConvVsConcurrentTelemetryIdentical(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(7, 12, 12, 3)
	w := tensor.RandomKernels(11, 7, 3, 3, 4)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	one, oneReg, oneTr := instrumentedChip(t)
	outOne := one.Conv(a, w, cc, true)
	two, twoReg, twoTr := instrumentedChip(t)
	outTwo := two.Conv(a, w, cc, true)

	const want = 0x70b78caae3f4c021
	if got := goldenHash(outOne.Data); got != want {
		t.Fatalf("first run bits 0x%016x, want serial-era 0x%016x", got, uint64(want))
	}
	if got := goldenHash(outTwo.Data); got != want {
		t.Fatalf("second run bits 0x%016x, want serial-era 0x%016x", got, uint64(want))
	}
	if !oneReg.Snapshot().Equal(twoReg.Snapshot()) {
		t.Fatalf("registry snapshots differ:\nfirst:  %+v\nsecond: %+v",
			oneReg.Snapshot().Counters, twoReg.Snapshot().Counters)
	}
	if got, want := ObservedActivity(oneReg.Snapshot()), DefaultConfig().ExpectedConvActivity(7, 12, 12, 11, 3, 3, 1, 1); got != want {
		t.Fatalf("observed activity %+v, want closed form %+v", got, want)
	}
	oneKinds, twoKinds := oneTr.CountByKind(), twoTr.CountByKind()
	if len(oneKinds) != len(twoKinds) {
		t.Fatalf("trace kinds differ: %v vs %v", oneKinds, twoKinds)
	}
	for k, n := range oneKinds {
		if twoKinds[k] != n {
			t.Fatalf("trace kind %q: first %d vs second %d", k, n, twoKinds[k])
		}
	}
	if oneTr.Len() != twoTr.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", oneTr.Len(), twoTr.Len())
	}
}

// TestInstrumentationDoesNotPerturbOutputs proves attaching a registry
// and trace never changes numerics: the instrumented chip's Conv must
// be bit-identical to a bare chip's.
func TestInstrumentationDoesNotPerturbOutputs(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(5, 10, 10, 9)
	w := tensor.RandomKernels(6, 5, 3, 3, 10)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	bare := NewChip(DefaultConfig())
	outBare := bare.Conv(a, w, cc, false)

	ins, _, _ := instrumentedChip(t)
	outIns := ins.Conv(a, w, cc, false)

	for i := range outBare.Data {
		if outBare.Data[i] != outIns.Data[i] {
			t.Fatalf("instrumentation perturbed output at %d: %g vs %g",
				i, outBare.Data[i], outIns.Data[i])
		}
	}
}

// TestObservedConvActivityMatchesClosedForm checks the recorded
// counters against the analytic Activity expectation for shapes that
// exercise uneven tiling in every loop dimension.
func TestObservedConvActivityMatchesClosedForm(t *testing.T) {
	t.Parallel()
	cases := []struct {
		z, ay, ax, m, ky, kx, stride, pad int
	}{
		{3, 8, 8, 4, 3, 3, 1, 1},
		{7, 12, 11, 11, 3, 3, 1, 1}, // z not divisible by Nu, bx not by Nd
		{4, 16, 16, 2, 5, 5, 2, 2},  // taps > Nm: multiple chunks
		{1, 6, 6, 1, 1, 1, 1, 0},    // degenerate 1x1
	}
	for _, tc := range cases {
		chip, reg, _ := instrumentedChip(t)
		a := tensor.RandomVolume(tc.z, tc.ay, tc.ax, 1)
		w := tensor.RandomKernels(tc.m, tc.z, tc.ky, tc.kx, 2)
		chip.Conv(a, w, tensor.ConvConfig{Stride: tc.stride, Pad: tc.pad}, true)

		want := chip.Config().ExpectedConvActivity(tc.z, tc.ay, tc.ax, tc.m, tc.ky, tc.kx, tc.stride, tc.pad)
		got := ObservedActivity(reg.Snapshot())
		if got != want {
			t.Errorf("case %+v: observed %+v, want %+v", tc, got, want)
		}
	}
}

// TestPointwiseFCDepthwiseCounters checks the non-dense layer kinds
// record plausible nonzero activity and the right op-kind counters.
func TestPointwiseFCDepthwiseCounters(t *testing.T) {
	t.Parallel()
	chip, reg, tr := instrumentedChip(t)

	a := tensor.RandomVolume(8, 6, 6, 5)
	pw := tensor.RandomKernels(4, 8, 1, 1, 6)
	chip.Pointwise(a, pw, true)

	dw := tensor.RandomKernels(8, 1, 3, 3, 7)
	chip.Conv(a, dw, tensor.ConvConfig{Stride: 1, Pad: 1, Depthwise: true}, true)

	fc := tensor.RandomKernels(3, 8, 6, 6, 8)
	chip.FullyConnected(a, fc, false)

	s := reg.Snapshot()
	for _, kind := range []string{"pointwise", "depthwise", "fc"} {
		id := MetricLayerOps + `{kind="` + kind + `"}`
		if s.Counters[id] != 1 {
			t.Errorf("layer op counter %s = %d, want 1", id, s.Counters[id])
		}
	}
	act := ObservedActivity(s)
	if act.Steps == 0 || act.MZMPrograms == 0 || act.MRRSwitches == 0 ||
		act.PDReads == 0 || act.ADCConversions == 0 {
		t.Fatalf("expected nonzero activity in every device class: %+v", act)
	}
	// Device-count ratios are structural: MRR switches are exactly Nd
	// per MZM program, and ADC conversions exactly Nd per step.
	nd := int64(chip.Config().Nd)
	if act.MRRSwitches != act.MZMPrograms*nd {
		t.Errorf("MRR/MZM ratio broken: %d vs %d*%d", act.MRRSwitches, act.MZMPrograms, nd)
	}
	if act.ADCConversions != act.Steps*nd {
		t.Errorf("ADC/steps ratio broken: %d vs %d*%d", act.ADCConversions, act.Steps, nd)
	}
	// One span per layer op, one tile event per scheduled kernel.
	kinds := tr.CountByKind()
	if kinds["span-start"] != 3 || kinds["span-start"] != kinds["span-end"] {
		t.Errorf("span accounting wrong: %v", kinds)
	}
	wantTiles := int64(pw.M + dw.M + fc.M)
	if kinds["tile-scheduled"] != wantTiles {
		t.Errorf("tile events = %d, want %d", kinds["tile-scheduled"], wantTiles)
	}
}

// TestInstrumentDetach verifies Instrument(nil, nil) restores the bare
// chip and that a trace-only attachment records events without a
// registry.
func TestInstrumentDetach(t *testing.T) {
	t.Parallel()
	chip := NewChip(DefaultConfig())
	tr := obs.NewTrace()
	chip.Instrument(nil, tr)

	a := tensor.RandomVolume(3, 6, 6, 11)
	w := tensor.RandomKernels(2, 3, 3, 3, 12)
	chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if tr.Len() == 0 {
		t.Fatal("trace-only attachment recorded nothing")
	}

	chip.Instrument(nil, nil)
	before := tr.Len()
	chip.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if tr.Len() != before {
		t.Fatal("detached chip still recorded trace events")
	}
}

// BenchmarkConvInstrumentationOverhead measures Chip.Conv bare (no
// registry or trace ever attached - the default, whose only cost is
// one nil check per PLCG step; the acceptance bar for this PR is <5%
// vs the pre-instrumentation baseline) against the fully attached
// configuration. CI archives the bench output so the gap is tracked
// over time.
func BenchmarkConvInstrumentationOverhead(b *testing.B) {
	a := tensor.RandomVolume(6, 16, 16, 1)
	w := tensor.RandomKernels(4, 6, 3, 3, 2)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	b.Run("bare", func(b *testing.B) {
		chip := NewChip(DefaultConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = chip.Conv(a, w, cc, true)
		}
	})
	b.Run("attached", func(b *testing.B) {
		chip := NewChip(DefaultConfig())
		chip.Instrument(obs.NewRegistry(), obs.NewTrace())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = chip.Conv(a, w, cc, true)
		}
	})
}

// TestChipInjectFault covers the instrumented fault entry point.
func TestChipInjectFault(t *testing.T) {
	t.Parallel()
	chip, reg, tr := instrumentedChip(t)
	f := Fault{Kind: StuckMZM, Tap: 0, Column: 0, Value: 0.5}
	if err := chip.InjectFault(0, 1, f); err != nil {
		t.Fatal(err)
	}
	if err := chip.InjectFault(-1, 0, f); err == nil {
		t.Fatal("out-of-range group must error")
	}
	if err := chip.InjectFault(0, 99, f); err == nil {
		t.Fatal("out-of-range unit must error")
	}
	if got := reg.Snapshot().Counters[MetricFaultsInjected]; got != 1 {
		t.Fatalf("fault counter = %d, want 1", got)
	}
	if tr.CountByKind()["fault-injected"] != 1 {
		t.Fatalf("fault trace event missing: %v", tr.CountByKind())
	}
	// The fault must actually land on the PLCU.
	chipB := NewChip(DefaultConfig())
	if err := chipB.InjectFault(0, 1, f); err != nil {
		t.Fatal(err)
	}
	a := tensor.RandomVolume(3, 6, 6, 21)
	w := tensor.RandomKernels(1, 3, 3, 3, 22)
	clean := NewChip(DefaultConfig()).Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	faulty := chipB.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, false)
	same := true
	for i := range clean.Data {
		if clean.Data[i] != faulty.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("injected StuckMZM had no numeric effect")
	}
}
