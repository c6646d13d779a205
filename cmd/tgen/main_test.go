package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/tarm-project/tarm/internal/tdb"
)

func TestGenerateWritesDatabase(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	err := generate(dir, "baskets", 28, "day", 15, 100, 30, 6, 3, "2024-01-01", 7,
		[]string{"weekend|chips,beer|weekday in (sat,sun)|0.4|0.01"})
	if err != nil {
		t.Fatal(err)
	}
	// tgen leaves a checkpointed engine directory, not a .txn file.
	for _, want := range []string{"baskets.segd/manifest", "tdb.wal", "checkpoint", "items.dict"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("generated directory lacks %s: %v", want, err)
		}
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "*.txn")); len(legacy) != 0 {
		t.Errorf("generated directory holds legacy files %v", legacy)
	}
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Kill()
	if rec := db.Recovery(); rec.Records != 0 {
		t.Errorf("generated directory replays %+v on open, want a clean checkpoint", rec)
	}
	tbl, ok := db.TxTable("baskets")
	if !ok {
		t.Fatal("baskets table missing")
	}
	if tbl.Len() < 28*5 {
		t.Errorf("only %d transactions generated", tbl.Len())
	}
	if _, ok := db.Dict().Lookup("chips"); !ok {
		t.Error("planted item name not interned")
	}
	if _, ok := db.Dict().Lookup("item0099"); !ok {
		t.Error("background item names not interned")
	}
}

func TestGenerateErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"bad granularity", func() error {
			return generate(dir, "b", 10, "eon", 5, 50, 10, 5, 2, "2024-01-01", 1, nil)
		}},
		{"bad start", func() error {
			return generate(dir, "b", 10, "day", 5, 50, 10, 5, 2, "01/01/2024", 1, nil)
		}},
		{"bad plant arity", func() error {
			return generate(dir, "b", 10, "day", 5, 50, 10, 5, 2, "2024-01-01", 1, []string{"x|y"})
		}},
		{"plant one item", func() error {
			return generate(dir, "b", 10, "day", 5, 50, 10, 5, 2, "2024-01-01", 1, []string{"x|solo|always|0.5|0.01"})
		}},
		{"plant bad pattern", func() error {
			return generate(dir, "b", 10, "day", 5, 50, 10, 5, 2, "2024-01-01", 1, []string{"x|a,b|month in (99)|0.5|0.01"})
		}},
		{"plant bad prob", func() error {
			return generate(dir, "b", 10, "day", 5, 50, 10, 5, 2, "2024-01-01", 1, []string{"x|a,b|always|high|0.01"})
		}},
	}
	for _, c := range cases {
		if err := c.fn(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPlantFlags(t *testing.T) {
	var p plantFlags
	if err := p.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("b"); err != nil {
		t.Fatal(err)
	}
	if p.String() != "a; b" {
		t.Errorf("String = %q", p.String())
	}
}
