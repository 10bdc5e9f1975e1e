package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"aladdin/internal/quickseed"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
	if got := c.At(3); got != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if c.Mean() != 3 {
		t.Errorf("Mean = %v", c.Mean())
	}
}

func TestCDFInts(t *testing.T) {
	c := NewCDFInts([]int{10, 20, 30})
	if c.At(20) != 2.0/3.0 {
		t.Errorf("At(20) = %v", c.At(20))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Percentile(50) != 0 || c.Min() != 0 || c.Max() != 0 || c.Mean() != 0 {
		t.Error("empty CDF should return zeros")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..100
	}
	c := NewCDF(samples)
	cases := map[float64]float64{0: 1, 50: 50, 99: 99, 100: 100, 150: 100, -5: 1}
	for p, want := range cases {
		if got := c.Percentile(p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestPoints(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := NewCDF(samples)
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points = %d", len(pts))
	}
	if pts[0][0] != 1 || pts[len(pts)-1][0] != 10 {
		t.Errorf("extremes missing: %v", pts)
	}
	// Monotone.
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Errorf("points not monotone: %v", pts)
		}
	}
	if got := c.Points(100); len(got) != 10 {
		t.Errorf("Points capped at sample count: %d", len(got))
	}
	if c.Points(0) != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1, 2.5, 9.9, 11, -3} {
		h.Observe(v)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Buckets() != 5 {
		t.Errorf("Buckets = %d", h.Buckets())
	}
	// -3 clamps to bucket 0; 11 clamps to bucket 4.
	if h.Count(0) != 3 { // 0, 1, -3
		t.Errorf("Count(0) = %d", h.Count(0))
	}
	if h.Count(4) != 2 { // 9.9, 11
		t.Errorf("Count(4) = %d", h.Count(4))
	}
	if h.Count(1) != 1 { // 2.5
		t.Errorf("Count(1) = %d", h.Count(1))
	}
	if h.BucketLow(2) != 4 {
		t.Errorf("BucketLow(2) = %v", h.BucketLow(2))
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Error("Render should contain bars")
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Errorf("Render lines = %d", lines)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets should fail")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("hi <= lo should fail")
	}
}

func TestHistogramRenderDefaultWidth(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	h.Observe(0.5)
	if out := h.Render(0); out == "" {
		t.Error("default width render empty")
	}
}

func TestRange(t *testing.T) {
	r := NewRange([]float64{0.2, 0.7, 0.5})
	if r.Min != 0.2 || r.Max != 0.7 {
		t.Errorf("Range = %+v", r)
	}
	if math.Abs(r.Mean-0.4666666) > 1e-5 {
		t.Errorf("Mean = %v", r.Mean)
	}
	if !strings.Contains(r.String(), "20%") || !strings.Contains(r.String(), "70%") {
		t.Errorf("String = %q", r.String())
	}
	if empty := NewRange(nil); empty != (Range{}) {
		t.Errorf("empty Range = %+v", empty)
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(samples []float64, x, y float64) bool {
		for i, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				samples[i] = 0
			}
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		c := NewCDF(samples)
		if x > y {
			x, y = y, x
		}
		return c.At(x) <= c.At(y)
	}
	quickseed.Check(t, f, 0)
}

func TestQuickPercentileWithinSamples(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		var samples []float64
		for _, s := range raw {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				samples = append(samples, s)
			}
		}
		if len(samples) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		c := NewCDF(samples)
		v := c.Percentile(p)
		sort.Float64s(samples)
		return v >= samples[0] && v <= samples[len(samples)-1]
	}
	quickseed.Check(t, f, 0)
}
