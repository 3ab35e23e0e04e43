package core

import (
	"testing"

	"albireo/internal/obs"
	"albireo/internal/tensor"
)

func TestQuarantineValidation(t *testing.T) {
	t.Parallel()
	c := NewChip(DefaultConfig())
	if err := c.Quarantine(-1, 0); err == nil {
		t.Error("negative group should be rejected")
	}
	if err := c.Quarantine(0, 99); err == nil {
		t.Error("out-of-range unit should be rejected")
	}
	if err := c.Quarantine(0, 0); err != nil {
		t.Fatalf("first quarantine: %v", err)
	}
	if err := c.Quarantine(0, 0); err == nil {
		t.Error("double quarantine should be rejected")
	}
	if !c.Degraded() {
		t.Error("chip with a quarantined unit should report degraded")
	}
	got := c.Quarantined()
	if len(got) != 1 || got[0] != (UnitRef{Group: 0, Unit: 0}) {
		t.Errorf("Quarantined() = %v", got)
	}
	c.ClearQuarantine()
	if c.Degraded() || len(c.Quarantined()) != 0 {
		t.Error("ClearQuarantine should restore full capacity")
	}
	if err := c.Quarantine(0, 0); err != nil {
		t.Errorf("re-quarantine after clear: %v", err)
	}
}

func TestQuarantineRefusesLastUnit(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	c := NewChip(cfg)
	// Take down everything but (Ng-1, Nu-1).
	for g := 0; g < cfg.Ng; g++ {
		for u := 0; u < cfg.Nu; u++ {
			if g == cfg.Ng-1 && u == cfg.Nu-1 {
				continue
			}
			if err := c.Quarantine(g, u); err != nil {
				t.Fatalf("quarantine (%d,%d): %v", g, u, err)
			}
		}
	}
	if err := c.Quarantine(cfg.Ng-1, cfg.Nu-1); err == nil {
		t.Fatal("quarantining the last healthy PLCU must be refused")
	}
	// The crippled chip still computes: one group, one unit.
	a := tensor.RandomVolume(4, 6, 6, 41)
	w := tensor.RandomKernels(3, 4, 3, 3, 42)
	out := c.Conv(a, w, tensor.ConvConfig{Pad: 1}, false)
	if out.Z != 3 || out.Y != 6 || out.X != 6 {
		t.Fatalf("degraded conv shape %dx%dx%d", out.Z, out.Y, out.X)
	}
}

// TestQuarantineBitIdentical is the core remap contract: a chip with a
// faulty PLCU that has been quarantined produces output bit-identical
// to a fresh healthy chip scheduled onto the same surviving units. The
// quarantined unit is never driven, so its defect - and its noise
// stream - cannot touch the result.
func TestQuarantineBitIdentical(t *testing.T) {
	t.Parallel()
	a := tensor.RandomVolume(7, 10, 10, 101)
	w := tensor.RandomKernels(11, 7, 3, 3, 102)
	cc := tensor.ConvConfig{Stride: 1, Pad: 1}

	faulty := NewChip(DefaultConfig())
	faulty.Groups()[2].Units()[1].InjectFault(Fault{Kind: DeadRing, Tap: 4, Column: 2})
	if err := faulty.Quarantine(2, 1); err != nil {
		t.Fatal(err)
	}

	clean := NewChip(DefaultConfig())
	if err := clean.Quarantine(2, 1); err != nil {
		t.Fatal(err)
	}

	got := faulty.Conv(a, w, cc, true)
	want := clean.Conv(a, w, cc, true)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("quarantined fault leaked into output at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestQuarantineBitIdenticalAcrossMappings(t *testing.T) {
	t.Parallel()
	build := func(withFault bool) *Chip {
		c := NewChip(DefaultConfig())
		if withFault {
			c.Groups()[0].Units()[0].InjectFault(Fault{Kind: StuckMZM, Tap: 0, Value: 1})
		}
		if err := c.Quarantine(0, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	check := func(name string, run func(c *Chip) []float64) {
		got := run(build(true))
		want := run(build(false))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: quarantined fault leaked at %d", name, i)
			}
		}
	}
	a := tensor.RandomVolume(6, 8, 8, 201)
	check("pointwise", func(c *Chip) []float64 {
		return c.Pointwise(a, tensor.RandomKernels(5, 6, 1, 1, 202), false).Data
	})
	check("depthwise", func(c *Chip) []float64 {
		return c.Conv(a, tensor.RandomKernels(6, 1, 3, 3, 203), tensor.ConvConfig{Pad: 1, Depthwise: true}, false).Data
	})
	check("grouped", func(c *Chip) []float64 {
		return c.Conv(a, tensor.RandomKernels(4, 3, 3, 3, 204), tensor.ConvConfig{Pad: 1, Groups: 2}, false).Data
	})
	check("fc", func(c *Chip) []float64 {
		return c.FullyConnected(a, tensor.RandomKernels(7, 6, 8, 8, 205), false)
	})
}

func TestConvConcurrentUnderQuarantine(t *testing.T) {
	t.Parallel()
	// Conv partitions kernels by active-group position, so it must
	// reproduce the serial schedule's bits even when quarantine has
	// shrunk (and renumbered) the group list.
	a := tensor.RandomVolume(6, 9, 9, 301)
	w := tensor.RandomKernels(13, 6, 3, 3, 302)
	c := NewChip(DefaultConfig())
	// Empty group 1 entirely plus one unit elsewhere: exercises both
	// group-drop and capacity-shrink remapping.
	for u := 0; u < c.Config().Nu; u++ {
		mustQuarantine(c, 1, u)
	}
	mustQuarantine(c, 4, 2)
	out := c.Conv(a, w, tensor.ConvConfig{Stride: 1, Pad: 1}, true)
	if got, want := goldenHash(out.Data), uint64(0x7ac8b49e854d70b5); got != want {
		t.Fatalf("output bits under quarantine 0x%016x, want serial-era 0x%016x", got, want)
	}
}

func TestQuarantineObservability(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	trace := obs.NewTrace()
	c := NewChip(DefaultConfig())
	c.Instrument(reg, trace)
	// Empty group 0: every kernel that would have round-robined onto it
	// is remapped and counted.
	for u := 0; u < c.Config().Nu; u++ {
		if err := c.Quarantine(0, u); err != nil {
			t.Fatal(err)
		}
	}
	a := tensor.RandomVolume(3, 6, 6, 401)
	w := tensor.RandomKernels(9, 3, 3, 3, 402) // kernel 0 would land on group 0
	c.Conv(a, w, tensor.ConvConfig{Pad: 1}, false)

	snap := reg.Snapshot()
	if got := snap.SumCounters(MetricQuarantinedUnits); got != int64(c.Config().Nu) {
		t.Errorf("quarantine counter = %d", got)
	}
	if snap.SumCounters(MetricRemappedKernels) == 0 {
		t.Error("remap counter should record rescheduled kernels")
	}
	if trace.CountByKind()["unit-quarantined"] != int64(c.Config().Nu) {
		t.Error("each quarantine should emit a unit-quarantined event")
	}
}
