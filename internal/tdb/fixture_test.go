package tdb

import (
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// The history testdata/v1db was written from, by the fixedRows writer,
// through writeFixtureHistory: four dictionary names, a relational
// table and 80 days of baskets on three segments, then a checkpoint;
// after it a fifth name, a new transaction table and appends that stay
// in the WAL — a wide item and a late row among them, which change the
// counts of the first two segments and leave the third's as it was.
// The directory is kept as written: nothing regenerates it, because the
// writer that made it no longer exists.

var v1FixtureNames = []string{"ale", "bread", "chips", "dip"}

// v1FixtureCheckpointed is what the fixture's baskets held at its
// checkpoint, in arrival order.
func v1FixtureCheckpointed() []Tx {
	txs := make([]Tx, 0, 80)
	for d := range 80 {
		items := itemset.New(itemset.Item(d%4), 4, itemset.Item(100+d), itemset.Item(1000+7*d))
		if d%5 == 0 {
			items = itemset.New(itemset.Item(d % 3))
		}
		txs = append(txs, Tx{At: durAt(d, 9+d%5), Items: items})
	}
	return txs
}

// v1FixtureTail is what the fixture's WAL appended to baskets after the
// checkpoint, in arrival order: a wide item, a late row, an empty set.
func v1FixtureTail() []Tx {
	return []Tx{
		{At: durAt(50, 10), Items: itemset.New(1, 4, 70_000)},
		{At: durAt(3, 12), Items: itemset.New(0, 2)},
		{At: durAt(51, 8), Items: itemset.Set{}},
	}
}

// v1FixtureLate is the one transaction of the table created after the
// checkpoint.
func v1FixtureLate() Tx { return Tx{At: durAt(20, 1), Items: itemset.New(4)} }

// writeFixtureHistory replays the fixture's history into dir and abandons the
// database without a final checkpoint.
func writeFixtureHistory(t *testing.T, dir string) {
	t.Helper()
	db := durOpen(t, dir, FsyncAlways)
	for _, n := range v1FixtureNames {
		db.Dict().Intern(n)
	}
	schema, err := NewSchema(Column{Name: "name", Kind: KindString}, Column{Name: "opened", Kind: KindInt})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := db.CreateTable("stores", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{Str("north"), Int(1998)}, {Str("south"), Int(2003)}} {
		if err := stores.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	baskets, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := baskets.AppendBatchDurable(v1FixtureCheckpointed()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Dict().Intern("eggs")
	late, err := db.CreateTxTable("late")
	if err != nil {
		t.Fatal(err)
	}
	tail := v1FixtureTail()
	if _, _, err := baskets.AppendBatchDurable(tail[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := late.AppendBatchDurable([]Tx{v1FixtureLate()}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := baskets.AppendBatchDurable(tail[2:]); err != nil {
		t.Fatal(err)
	}
	db.Kill()
}
