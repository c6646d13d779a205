package bench

import (
	"testing"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/obs"
)

// BenchmarkTracerOverhead guards the acceptance bar of the telemetry
// layer: mining with a nil tracer must cost the same as mining with the
// explicit NopTracer (the Enabled() gate skips all stat assembly), and
// the difference between untraced and a live statement Trace must stay
// in the noise — tracing happens at pass granularity, a handful of events
// per run. Workload: the E11 midpoint, Quest T10.I4.D10k at minsup 1%.
//
//	go test ./internal/bench/ -bench TracerOverhead -benchtime 3x
func BenchmarkTracerOverhead(b *testing.B) {
	q, err := gen.NewQuest(gen.QuestConfig{AvgTxLen: 10, AvgPatLen: 4}, 7)
	if err != nil {
		b.Fatal(err)
	}
	src := apriori.Transactions(q.Transactions(10_000))
	// tracer returns each run's tracer: a fresh trace per run, as every
	// statement gets one.
	mine := func(b *testing.B, tracer func() obs.Tracer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			f, err := apriori.Mine(src, apriori.Config{
				MinSupport: 0.01, MaxK: 3, Tracer: tracer(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if f.TotalItemsets() == 0 {
				b.Fatal("workload degenerate: no frequent itemsets")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { mine(b, func() obs.Tracer { return nil }) })
	b.Run("nop", func(b *testing.B) { mine(b, func() obs.Tracer { return obs.Nop }) })
	b.Run("trace", func(b *testing.B) { mine(b, func() obs.Tracer { return obs.NewTrace("") }) })
}
