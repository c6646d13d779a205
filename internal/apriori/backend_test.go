package apriori

import (
	"math/rand"
	"testing"
)

// TestCeilCountBoundaries pins the float-ceiling fix: supports whose
// product with n is integral must not round up one extra transaction.
func TestCeilCountBoundaries(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.15, 20, 3},  // 0.15*20 = 3.0000000000000004 in float64
		{0.07, 100, 7}, // 7.000000000000001
		{0.1, 30, 3},   // 2.9999999999999996
		{0.29, 100, 29},
		{0.3, 10, 3},
		{0.5, 7, 4},
		{0.001, 10, 1}, // floor of 1
		{1, 5, 5},
		{0.333, 3, 1},
	}
	for _, c := range cases {
		if got := CeilCount(c.frac, c.n); got != c.want {
			t.Errorf("CeilCount(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
		cfg := Config{MinSupport: c.frac}
		mc, err := cfg.minCount(c.n)
		if err != nil || mc != c.want {
			t.Errorf("minCount(%v, %d) = %d, %v; want %d", c.frac, c.n, mc, err, c.want)
		}
	}
}

// TestCeilCountEdges pins the contract at the degenerate corners: the
// ≥1 clamp (frac = 0, n = 0), the identity at frac = 1, and
// exact-integer fractions that must not round up.
func TestCeilCountEdges(t *testing.T) {
	cases := []struct {
		name string
		frac float64
		n    int
		want int
	}{
		{"empty population", 0.5, 0, 1},
		{"zero fraction", 0, 100, 1},
		{"zero fraction, empty", 0, 0, 1},
		{"full support small", 1, 1, 1},
		{"full support", 1, 1000, 1000},
		{"full support large", 1, 1 << 30, 1 << 30},
		{"exact quarter", 0.25, 8, 2},
		{"exact half", 0.5, 2, 1},
		{"exact tenth", 0.1, 50, 5},
		{"exact eighth", 0.125, 64, 8},
		{"just above integral", 0.25000001, 8, 3},
		{"just below one item", 0.0001, 5, 1},
	}
	for _, c := range cases {
		if got := CeilCount(c.frac, c.n); got != c.want {
			t.Errorf("%s: CeilCount(%v, %d) = %d, want %d", c.name, c.frac, c.n, got, c.want)
		}
	}
	// minCount rejects out-of-range supports rather than clamping them.
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := (Config{MinSupport: frac}).minCount(10); err == nil {
			t.Errorf("minCount accepted MinSupport %v", frac)
		}
	}
}

func TestPopcountRange(t *testing.T) {
	words := make([]uint64, 4) // 256 bits
	set := map[int]bool{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		b := rng.Intn(256)
		set[b] = true
		words[b>>6] |= 1 << uint(b&63)
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(257)
		hi := rng.Intn(257)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for b := lo; b < hi; b++ {
			if set[b] {
				want++
			}
		}
		if got := PopcountRange(words, lo, hi); got != want {
			t.Fatalf("PopcountRange(%d, %d) = %d, want %d", lo, hi, got, want)
		}
	}
}
