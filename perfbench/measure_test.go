package main

import (
	"math"
	"testing"

	"tsm"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the function must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{11, 9, 1},    // the minimum is the only value with 10 beyond it
		{20, 50, 10},  // rank 10 of 20
		{21, 52, 11},  // rank ceil(52*21/100) = 11, 10 beyond
		{100, 90, 90}, // rank 90 of 100
		{1000, 99, 990},
	} {
		p, v, err := tailPercentile(ascending(tc.n))
		if err != nil || p != tc.p || v != tc.v {
			t.Errorf("n=%d: got p%d=%g (%v), want p%d=%g", tc.n, p, v, err, tc.p, tc.v)
		}
	}
	if _, _, err := tailPercentile(ascending(tailBeyond)); err == nil {
		t.Errorf("n=%d: want an error, no percentile has %d values beyond it", tailBeyond, tailBeyond)
	}
}

// TestTailPercentileBeyond checks the definition for every count: at least
// tailBeyond values lie above the reported value, and one percentile higher
// would leave fewer.
func TestTailPercentileBeyond(t *testing.T) {
	for n := tailBeyond + 1; n <= 2000; n++ {
		p, v, err := tailPercentile(ascending(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := n - int(v) // values are 1..n
		if beyond < tailBeyond {
			t.Fatalf("n=%d: p%d has %d values beyond it, want >= %d", n, p, beyond, tailBeyond)
		}
		if p < 100 && n-((p+1)*n+99)/100 >= tailBeyond {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d values beyond it", n, p, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

func TestPerEventAndShare(t *testing.T) {
	if got := perEvent(2.5e9, 1_000_000); got != 2500 {
		t.Errorf("perEvent = %g, want 2500 ns/event", got)
	}
	if got := perEvent(1, 0); got != 0 {
		t.Errorf("perEvent over no events = %g, want 0", got)
	}
	if got := sharePct(25, 200); got != 12.5 {
		t.Errorf("sharePct = %g, want 12.5", got)
	}
	if got := sharePct(1, 0); got != 0 {
		t.Errorf("sharePct of nothing = %g, want 0", got)
	}
	if got := sharePct(-3, 100); got != -3 {
		t.Errorf("a negative residual keeps its sign: got %g", got)
	}
}

// TestShareOfWeightedLayers checks the share arithmetic of the traced run:
// a layer's per-input CPU counted as often as the op runs it over each
// input, over the op's CPU.
func TestShareOfWeightedLayers(t *testing.T) {
	r := &layerRun{inputs: []*layerInput{
		{layerRuns: layerRuns{tse: 2}},
		{layerRuns: layerRuns{tse: 1}},
		{layerRuns: layerRuns{tse: 0}},
	}}
	cost := []float64{10, 20, 1000}
	got := r.weighted(cost, func(li *layerInput) int { return li.tse })
	if got != 40 {
		t.Fatalf("weighted = %g, want 2*10 + 20 = 40", got)
	}
	if s := sharePct(got, 160); s != 25 {
		t.Errorf("share = %g, want 25", s)
	}
}

func TestStallFractions(t *testing.T) {
	snap := tsm.MetricsSnapshot{Counters: map[string]uint64{
		"pipeline.wall_ns":                1000,
		"pipeline.producer.stall_ns":      250,
		"pipeline.events_decoded":         100,
		"pipeline.consumer.a.events":      100,
		"pipeline.consumer.a.stall_ns":    300,
		"pipeline.consumer.LA=8.events":   100,
		"pipeline.consumer.LA=8.stall_ns": 100,
	}}
	p, c := stallFractions(snap)
	if p != 0.25 || math.Abs(c-0.2) > 1e-12 {
		t.Errorf("stallFractions = %g, %g; want 0.25, 0.2 (400 ns of 2 consumers x 1000 ns)", p, c)
	}
}
