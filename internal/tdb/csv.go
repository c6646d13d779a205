package tdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// CSV basket format: one transaction per record,
//
//	timestamp,item1;item2;item3
//
// with timestamps in "2006-01-02 15:04:05", "2006-01-02 15:04",
// "2006-01-02" (UTC) or RFC 3339; seconds may carry a fraction. Export
// writes "2006-01-02 15:04:05", with the fraction when there is one,
// so an export imports back to the same instants. A header record
// whose first field is "timestamp" (case-insensitive) is skipped. Item
// names are interned through the dictionary, so imports compose with
// mining and name resolution — but only the names of the records that
// are stored: a refused record, or a refused body, leaves the
// dictionary as it was.

// csvTimeLayouts accepted on import, tried in order.
var csvTimeLayouts = []string{"2006-01-02 15:04:05", "2006-01-02 15:04", "2006-01-02", time.RFC3339}

func parseCSVTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range csvTimeLayouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("tdb: cannot parse timestamp %q", s)
}

// Basket is one parsed basket record: its instant and its item names,
// not yet interned.
type Basket struct {
	At    time.Time
	Items []string
}

// ParseBaskets reads basket CSV. It returns the baskets up to the first
// bad record, with that record's error; nothing is interned or stored.
func ParseBaskets(r io.Reader) ([]Basket, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.TrimLeadingSpace = true
	var baskets []Basket
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return baskets, nil
		}
		if err != nil {
			return baskets, fmt.Errorf("tdb: basket csv: %w", err)
		}
		if line == 1 && strings.EqualFold(strings.TrimSpace(rec[0]), "timestamp") {
			continue // header
		}
		at, err := parseCSVTime(rec[0])
		if err != nil {
			return baskets, fmt.Errorf("tdb: basket csv record %d: %w", line, err)
		}
		var names []string
		for _, name := range strings.Split(rec[1], ";") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return baskets, fmt.Errorf("tdb: basket csv record %d: empty basket", line)
		}
		if err := CheckTime(at); err != nil {
			return baskets, fmt.Errorf("tdb: basket csv record %d: %w", line, err)
		}
		baskets = append(baskets, Basket{At: at, Items: names})
	}
}

// InternBaskets interns the baskets' names under one dictionary lock
// (itemset.Dict.InternBatch), in record order, and returns the baskets
// as transactions. Call it only for baskets that will be stored.
func InternBaskets(baskets []Basket, dict *itemset.Dict) []Tx {
	var names []string
	for _, b := range baskets {
		names = append(names, b.Items...)
	}
	items := make([]itemset.Item, len(names))
	dict.InternBatch(names, items)
	txs := make([]Tx, len(baskets))
	for i, b := range baskets {
		n := len(b.Items)
		txs[i] = Tx{At: b.At, Items: itemset.Canonical(items[:n:n])}
		items = items[n:]
	}
	return txs
}

// ImportBaskets reads basket CSV into tbl and stores the rows before
// the first bad record as one batch: on a durable table, one WAL
// commit. It interns, through dict, the names of those rows only. It
// returns the number of transactions stored, and the commit's error
// ahead of the parse error.
func ImportBaskets(r io.Reader, tbl *TxTable, dict *itemset.Dict) (n int, err error) {
	baskets, parseErr := ParseBaskets(r)
	if len(baskets) == 0 {
		return 0, parseErr
	}
	txs := InternBaskets(baskets, dict)
	firstID, _, err := tbl.AppendBatchDurable(txs)
	switch {
	case firstID < 0: // refused whole: nothing stored
		return 0, err
	case err != nil:
		return len(txs), err
	}
	return len(txs), parseErr
}

// ExportBaskets writes tbl in the basket CSV format, resolving item
// names through dict (unknown identifiers render as "#<id>").
func ExportBaskets(w io.Writer, tbl *TxTable, dict *itemset.Dict) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "items"}); err != nil {
		return err
	}
	var exportErr error
	var names []string // one transaction's item names, reused
	tbl.Each(func(tx Tx) bool {
		names = names[:0]
		for _, it := range tx.Items {
			names = append(names, dict.Label(it))
		}
		if err := cw.Write([]string{tx.At.UTC().Format("2006-01-02 15:04:05.999999999"), strings.Join(names, ";")}); err != nil {
			exportErr = err
			return false
		}
		return true
	})
	if exportErr != nil {
		return exportErr
	}
	cw.Flush()
	return cw.Error()
}

// ImportTable reads plain CSV into a relational table. The first record
// must be a header matching the schema's column names (case-insensitive,
// any order); values are parsed according to the column types, with
// empty fields as NULL.
func ImportTable(r io.Reader, tbl *Table) (n int, err error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("tdb: table csv: missing header: %w", err)
	}
	schema := tbl.Schema()
	colFor := make([]int, len(header))
	for i, h := range header {
		idx := schema.ColIndex(strings.TrimSpace(h))
		if idx < 0 {
			return 0, fmt.Errorf("tdb: table csv: unknown column %q", h)
		}
		colFor[i] = idx
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("tdb: table csv: %w", err)
		}
		line++
		row := make(Row, len(schema.Cols))
		for i := range row {
			row[i] = Null()
		}
		for i, field := range rec {
			if i >= len(colFor) {
				return n, fmt.Errorf("tdb: table csv record %d: too many fields", line)
			}
			col := schema.Cols[colFor[i]]
			v, err := parseCSVValue(field, col.Kind)
			if err != nil {
				return n, fmt.Errorf("tdb: table csv record %d, column %q: %w", line, col.Name, err)
			}
			row[colFor[i]] = v
		}
		if err := tbl.Insert(row); err != nil {
			return n, fmt.Errorf("tdb: table csv record %d: %w", line, err)
		}
		n++
	}
}

func parseCSVValue(field string, kind Kind) (Value, error) {
	field = strings.TrimSpace(field)
	if field == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		var v int64
		if _, err := fmt.Sscanf(field, "%d", &v); err != nil {
			return Value{}, fmt.Errorf("bad int %q", field)
		}
		return Int(v), nil
	case KindFloat:
		var v float64
		if _, err := fmt.Sscanf(field, "%g", &v); err != nil {
			return Value{}, fmt.Errorf("bad float %q", field)
		}
		return Float(v), nil
	case KindString:
		return Str(field), nil
	case KindBool:
		switch strings.ToLower(field) {
		case "true", "t", "1", "yes":
			return Bool(true), nil
		case "false", "f", "0", "no":
			return Bool(false), nil
		default:
			return Value{}, fmt.Errorf("bad bool %q", field)
		}
	case KindTime:
		t, err := parseCSVTime(field)
		if err != nil {
			return Value{}, err
		}
		return Time(t), nil
	default:
		return Value{}, fmt.Errorf("unsupported column type %v", kind)
	}
}
