package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// tableHash digests a table's transactions in stored order: timestamp,
// length and items of each.
func tableHash(tbl *tdb.TxTable) string {
	d := sha256.New()
	var buf [8]byte
	tbl.Each(func(tx tdb.Tx) bool {
		binary.LittleEndian.PutUint64(buf[:], uint64(tx.At.UnixNano()))
		d.Write(buf[:])
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(tx.Items)))
		d.Write(buf[:4])
		for _, it := range tx.Items {
			binary.LittleEndian.PutUint32(buf[:4], uint32(it))
			d.Write(buf[:4])
		}
		return true
	})
	return hex.EncodeToString(d.Sum(nil))
}

// TestGeneratedDataPinned holds the generator's output at the granule
// sizes in use to the bytes it produced before its large-mean draw was
// replaced: the standard year at 100 and 300 tx/day, and a temporal
// table at 700 tx a granule, the largest mean the exact draw still
// serves.
func TestGeneratedDataPinned(t *testing.T) {
	for _, tc := range []struct {
		txPerDay int
		want     string
	}{
		{100, "201b1edeb6bf2bce35a9dff52549151f0df5993ce8c2e0b114426785a0a56aba"},
		{300, "ef2d031084049bc55cfa0c32c0dfa89b94522214da29bffd6fc41f5d71c5bb0a"},
	} {
		tbl, _, err := StandardDataset(StandardConfig{TxPerDay: tc.txPerDay})
		if err != nil {
			t.Fatal(err)
		}
		if got := tableHash(tbl); got != tc.want {
			t.Errorf("StandardDataset at %d tx/day: %d transactions hash %s, want %s", tc.txPerDay, tbl.Len(), got, tc.want)
		}
	}
	tbl, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 200, NPatterns: 40, AvgTxLen: 4},
		Start:        time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    14,
		TxPerGranule: 700,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const want700 = "51222ff52b3c7f84b33aa4d29cd9a8872368c977006adca5e023cd7bba962576"
	if got := tableHash(tbl); got != want700 {
		t.Errorf("GenerateTemporal at 700 tx a granule: %d transactions hash %s, want %s", tbl.Len(), got, want700)
	}
}
