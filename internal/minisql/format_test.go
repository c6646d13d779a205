package minisql

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/tdb"
)

// formatFprintf is the table renderer Format replaced, kept here only as
// its oracle: one display string (displayOracle) and one fmt.Fprintf per
// cell, widths in bytes, padding by %-*s.
func formatFprintf(w io.Writer, res *Result) {
	widths := make([]int, len(res.Cols))
	for i, c := range res.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := displayOracle(v)
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sep strings.Builder
	for _, wd := range widths {
		sep.WriteString("+")
		sep.WriteString(strings.Repeat("-", wd+2))
	}
	sep.WriteString("+\n")
	fmt.Fprint(w, sep.String())
	for i, c := range res.Cols {
		fmt.Fprintf(w, "| %-*s ", widths[i], c)
	}
	fmt.Fprint(w, "|\n")
	fmt.Fprint(w, sep.String())
	for _, row := range cells {
		for c, s := range row {
			fmt.Fprintf(w, "| %-*s ", widths[c], s)
		}
		fmt.Fprint(w, "|\n")
	}
	fmt.Fprint(w, sep.String())
	fmt.Fprintf(w, "%d row(s)\n", len(res.Rows))
}

// displayOracle is Value.Display as written before the append
// renderer, from the exported accessors.
func displayOracle(v tdb.Value) string {
	switch v.K {
	case tdb.KindNull:
		return "NULL"
	case tdb.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case tdb.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case tdb.KindString:
		return v.AsString()
	case tdb.KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case tdb.KindTime:
		return v.AsTime().Format("2006-01-02 15:04:05")
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.K))
	}
}

// formatStrings are cell and header texts that separate byte width
// from rune padding: multi-byte runes, an invalid byte, the empty
// string, and a header wider than anything below it.
var formatStrings = []string{
	"", "a", "beer", "chips, salsa", "crème brûlée", "日本酒", "🍺🍺", "\xff", "naïve",
	"a header wider than every cell in its column",
}

// randomValue draws a cell of any kind, edge values of each included.
func randomValue(r *rand.Rand) tdb.Value {
	switch r.Intn(6) {
	case 0:
		return tdb.Null()
	case 1:
		return tdb.Int([]int64{0, -1, 7, math.MaxInt64, math.MinInt64, r.Int63n(1e6)}[r.Intn(6)])
	case 2:
		return tdb.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
			1e21, 5e-324, 0.1 + 0.2, r.Float64(), r.NormFloat64() * 1e6}[r.Intn(10)])
	case 3:
		return tdb.Bool(r.Intn(2) == 0)
	case 4:
		return tdb.Time(time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(r.Int63n(1e17))))
	default:
		return tdb.Str(formatStrings[r.Intn(len(formatStrings))])
	}
}

// randomResult draws a result of 0–5 columns and 0–12 rows; a row may
// be shorter than the header, never longer (both renderers index the
// widths by cell).
func randomResult(r *rand.Rand) *Result {
	res := &Result{Cols: make([]string, r.Intn(6))}
	for i := range res.Cols {
		res.Cols[i] = formatStrings[r.Intn(len(formatStrings))]
	}
	for range r.Intn(13) {
		row := make(tdb.Row, len(res.Cols))
		if len(row) > 0 && r.Intn(8) == 0 {
			row = row[:r.Intn(len(row))]
		}
		for c := range row {
			row[c] = randomValue(r)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestQuickFormatMatchesFprintf: the append encoder writes exactly the
// bytes of the Fprintf renderer, in one Write.
func TestQuickFormatMatchesFprintf(t *testing.T) {
	law := func(seed int64) bool {
		res := randomResult(rand.New(rand.NewSource(seed)))
		var want bytes.Buffer
		formatFprintf(&want, res)
		var got writeCounter
		Format(&got, res)
		if got.String() != want.String() || got.writes != 1 {
			t.Logf("seed %d (%d writes):\n got %q\nwant %q", seed, got.writes, got.String(), want.String())
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

// TestFormatEdges pins the shapes a random draw may miss: no columns,
// zero rows, and a header wider than every cell.
func TestFormatEdges(t *testing.T) {
	for _, res := range []*Result{
		{},
		{Cols: []string{"antecedent", "consequent"}},
		{Cols: []string{"a header wider than every cell"}, Rows: []tdb.Row{{tdb.Int(1)}, {tdb.Null()}}},
		{Cols: []string{"é"}, Rows: []tdb.Row{{tdb.Str("日本酒")}, {tdb.Str("")}}},
	} {
		var got, want bytes.Buffer
		Format(&got, res)
		formatFprintf(&want, res)
		if got.String() != want.String() {
			t.Errorf("%+v:\n got %q\nwant %q", res, got.String(), want.String())
		}
	}
}

// TestAppendDisplayMatchesOracle: the one cell renderer, appending and
// through Display, spells every kind as before.
func TestAppendDisplayMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 2000 {
		v := randomValue(r)
		want := displayOracle(v)
		if got := string(v.AppendDisplay([]byte("x"))); got != "x"+want {
			t.Fatalf("AppendDisplay(%v) = %q, want %q", v, got, "x"+want)
		}
		if got := v.Display(); got != want {
			t.Fatalf("Display(%v) = %q, want %q", v, got, want)
		}
	}
}
