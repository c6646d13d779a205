package tdb

import (
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// TestTxTableConcurrentReadWrite hammers a transaction table with one
// writer and several readers; run with -race.
func TestTxTableConcurrentReadWrite(t *testing.T) {
	tbl, _ := NewTxTable("hot")
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			tbl.Append(start.AddDate(0, 0, i%30), itemset.New(itemset.Item(i%10), itemset.Item(10+i%5)))
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if view, ok := tbl.Granules(timegran.Day); ok {
					n := 0
					for gi := range view.Counts {
						view.Source(gi).ForEach(func(itemset.Set) { n++ })
					}
					tbl.EachInRange(timegran.Day, view.Span, func(Tx) bool { return true })
				}
				tbl.Len()
				tbl.Epoch()
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 2000 {
		t.Errorf("appended %d", tbl.Len())
	}
}

// TestTableConcurrentReadWrite does the same for relational tables.
func TestTableConcurrentReadWrite(t *testing.T) {
	tbl, _ := NewTable("hot", mustSchema(t))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			tbl.Insert(Row{Int(int64(i)), Str("x")})
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				tbl.Scan(func(Row) bool { n++; return true })
				tbl.Len()
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 2000 {
		t.Errorf("inserted %d", tbl.Len())
	}
}

func mustSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
