package apriori_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	. "github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
)

// BenchmarkBitmapIngest times the flat index's ingest over a year of
// 300-transaction days (365 slices), keeping the two thirds of the
// items that occur most: a catalogue of 250 items, the benchmark
// table's width, and one of 5 000, an L1 in the thousands. Ten items a
// basket in both, so the wide shape sets far fewer of each kept item's
// bits per word.
func BenchmarkBitmapIngest(b *testing.B) {
	for _, shape := range []struct{ items, patterns int }{{250, 50}, {5000, 2000}} {
		q, err := gen.NewQuest(gen.QuestConfig{NItems: shape.items, NPatterns: shape.patterns}, 1)
		if err != nil {
			b.Fatal(err)
		}
		txs := Transactions(q.Transactions(365 * 300))
		days := make([]Source, 365)
		for d := range days {
			days[d] = txs[d*300 : (d+1)*300]
		}
		// Keep the two thirds of the items that occur most, as an L1
		// would, so the rest take the discard entry.
		count := make([]int, shape.items)
		for _, tx := range txs {
			for _, x := range tx {
				count[x]++
			}
		}
		var occurring []int
		for _, n := range count {
			if n > 0 {
				occurring = append(occurring, n)
			}
		}
		slices.Sort(occurring)
		floor := occurring[len(occurring)/3]
		keep := new(itemset.Ranks)
		for x, n := range count {
			if n >= floor {
				keep.Add(itemset.Item(x))
			}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("items%d/keep%d/workers%d", shape.items, keep.Len(), workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if NewBitmapIndex(context.Background(), days, keep, workers) == nil {
						b.Fatal("no index")
					}
				}
			})
		}
	}
}
