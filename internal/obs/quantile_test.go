package obs

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramQuantile checks the bucket-interpolated estimate on a
// known distribution.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 100 samples uniform in (0,1]: every quantile lands inside the
	// first bucket, interpolated from 0 to 1.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5", got)
	}
	if got := h.Quantile(0.99); math.Abs(got-0.99) > 1e-9 {
		t.Fatalf("p99 = %v, want 0.99", got)
	}
	// An overflow sample clamps to the last finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("+Inf-bucket p50 = %v, want clamp to 2", got)
	}
}

// TestWritePromQuantiles: histograms with samples expose p50/p95/p99
// gauge lines; empty histograms do not.
func TestWritePromQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("tarmd_statement_seconds").Observe(0.2)
	r.Histogram("tarmd_statement_seconds").Observe(0.4)
	r.Histogram("empty_hist") // registered, no samples
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"tarmd_statement_seconds_p50 ",
		"tarmd_statement_seconds_p95 ",
		"tarmd_statement_seconds_p99 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "empty_hist_p50") {
		t.Error("empty histogram exposed a quantile line")
	}
}
