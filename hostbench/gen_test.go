package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleRepeatsForASeed(t *testing.T) {
	a := poissonSchedule(7, 1, 140, 3*time.Second)
	b := poissonSchedule(7, 1, 140, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two arrival schedules")
	}
	if len(a) != 420 {
		t.Fatalf("got %d arrivals, want rate*span = 420", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 3*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the span", i, a[i])
		}
	}
	if c := poissonSchedule(8, 1, 140, 3*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if c := poissonSchedule(7, 2, 140, 3*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("blocks 1 and 2 gave the same schedule")
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	for i := 0; i < 8; i++ {
		if !reflect.DeepEqual(cnnInput(3, streamRequest, i, servedSize), cnnInput(3, streamRequest, i, servedSize)) {
			t.Fatalf("cnn input %d differs between two draws of one seed", i)
		}
		if !reflect.DeepEqual(gemmRequestAt(3, streamRequest, i), gemmRequestAt(3, streamRequest, i)) {
			t.Fatalf("gemm request %d differs between two draws of one seed", i)
		}
		xr, xm := simInputs(3, i)
		yr, ym := simInputs(3, i)
		if !reflect.DeepEqual(xr, yr) || !reflect.DeepEqual(xm, ym) {
			t.Fatalf("sim-cnn round %d inputs differ between two draws of one seed", i)
		}
	}
	if reflect.DeepEqual(cnnInput(3, streamRequest, 0, servedSize), cnnInput(4, streamRequest, 0, servedSize)) {
		t.Fatal("seeds 3 and 4 gave the same input")
	}
	if reflect.DeepEqual(cnnInput(3, streamRequest, 0, servedSize), cnnInput(3, streamRequest, 1, servedSize)) {
		t.Fatal("requests 0 and 1 got the same input")
	}
}

func TestGEMMMix(t *testing.T) {
	var sets [2]int
	for i := 0; i < 12; i++ {
		r := gemmRequestAt(1, streamRequest, i)
		if r.attention != (i%4 == 3) {
			t.Fatalf("request %d: attention = %v", i, r.attention)
		}
		if !r.attention {
			sets[r.set]++
		}
	}
	if sets != [2]int{5, 4} {
		t.Fatalf("MLP requests per weight set = %v, want the two sets alternating", sets)
	}
	m := mlpWeightSets()[0]
	c := freshCopy(m)
	if c.Weights[0] == m.Weights[0] || !reflect.DeepEqual(c.Weights[0], m.Weights[0]) {
		t.Fatal("freshCopy must copy the weights into new storage")
	}
}

func TestTailFor(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {40, 75}, {150, 90}, {375, 95}, {750, 95}, {2100, 99}, {20000, 99.9}} {
		if got := tailFor(c.n); got != c.want {
			t.Errorf("tailFor(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
