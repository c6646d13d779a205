package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// appendBodySeeds are FuzzAppendBody's seed corpus: the corners where a
// hand-written decoder is most likely to part from encoding/json.
var appendBodySeeds = []string{
	`{"table":"baskets","transactions":[{"at":"2024-01-29T12:00:00Z","items":["bread","milk"]}]}`,
	" \t\r\n{ \"transactions\" : [ { \"items\" : [ \"a\" ] , \"at\" : \"2024-01-29T12:00:00Z\" } ] , \"table\" : \"t\" } \n",
	// Escapes, surrogates, invalid UTF-8.
	`{"table":"baskets","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a\"b","c\\d","\/x","\b\f\n\r\t","é"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["😀","\ud800","\udc00x","\ud800A"]}]}`,
	"{\"table\":\"t\",\"transactions\":[{\"at\":\"2024-01-29T12:00:00Z\",\"items\":[\"\xff\xfe\",\"a\xc3\",\"\xe2\x82\xac\"]}]}",
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["\x"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["\u12"]}]}`,
	"{\"table\":\"t\",\"transactions\":[{\"at\":\"2024-01-29T12:00:00Z\",\"items\":[\"a\nb\"]}]}",
	// Case-variant and folded keys (U+017F folds to s).
	`{"TABLE":"t","Transactions":[{"AT":"2024-01-29T12:00:00Z","iTeMs":["a"]}]}`,
	`{"table":"t","tranſactionſ":[{"at":"2024-01-29T12:00:00Z","İTEMS":["a"]}]}`,
	`{"\u0074able":"t","transactions":[{"\u0041t":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	// Unknown keys with nested values, numbers and literals.
	`{"x":{"y":[1,-2.5e10,{"z":null}],"w":true,"v":false},"table":"t","transactions":[{"q":[[]],"at":"2024-01-29T12:00:00Z","items":["a"],"n":-0}]}`,
	`{"x":01,"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"x":1.,"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"x":tru,"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	// Duplicates: the last key wins, merging into what the earlier left.
	`{"table":"a","table":"b","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a","b"]},{"at":"2024-01-29T13:00:00Z","items":["c"]}],"transactions":[{"items":["d"]},null]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a","b","c"],"items":["d"],"items":["e",null,null]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a","b"],"items":[],"items":[null]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]},{"at":"2024-01-29T12:00:00Z","items":["b"]}],"transactions":[],"transactions":[{"items":["c"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":[]},{"at":"2024-01-29T13:00:00Z","items":["b"]}],"transactions":[{"items":["a"]},{}]}`,
	// Nulls.
	`null`,
	`{"table":null,"transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"table":"t","table":null,"transactions":null}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","at":null,"items":[null,"a"]}]}`,
	`{"table":"t","transactions":[null]}`,
	// Type errors.
	`{"table":5,"transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":123,"items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00\u005a","items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00+02:00","items":[1]}]}`,
	`{"table":"t","transactions":{"at":"2024-01-29T12:00:00.123456789Z","items":["a"]}}`,
	`["table","t"]`,
	// Timestamps at and past the storable range.
	`{"table":"t","transactions":[{"at":"0001-01-01T00:00:00Z","items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":"1500-06-01T00:00:00Z","items":["a"]}]}`,
	`{"table":"t","transactions":[{"at":"2262-04-11T23:47:16.854775807Z","items":["a"]}]}`,
	// Trailing data and truncation.
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}x`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}{}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a",]}]}`,
	`{"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}`,
	"\ufeff{}",
	``,
	` `,
	// Nesting: the object itself is one level, so 9999 more are allowed.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"table":"t","transactions":[{"at":"2024-01-29T12:00:00Z","items":["a"]}]}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

// FuzzAppendBody is the differential oracle of the append decoder: for
// every body, decodeAppend and json.Unmarshal into appendRequest (with
// the same validation) agree on accept or reject and, when accepting,
// on the table, every timestamp and every item-name list, and the names
// the batch interns are those lists concatenated.
func FuzzAppendBody(f *testing.F) {
	for _, s := range appendBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceAppend(body)
		got, err := decodeAppend(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeAppend err = %v, encoding/json err = %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if got.table != want.Table {
			t.Fatalf("body %q: table %q, want %q", body, got.table, want.Table)
		}
		if len(got.txs) != len(want.Transactions) {
			t.Fatalf("body %q: %d transactions, want %d", body, len(got.txs), len(want.Transactions))
		}
		var names []string
		for i, tx := range got.txs {
			w := want.Transactions[i]
			if tx.at.UnixNano() != w.At.UnixNano() || !tx.at.Equal(w.At) {
				t.Fatalf("body %q: transaction %d at %v, want %v", body, i, tx.at, w.At)
			}
			if fmt.Sprintf("%q", tx.items) != fmt.Sprintf("%q", w.Items) {
				t.Fatalf("body %q: transaction %d items %q, want %q", body, i, tx.items, w.Items)
			}
			names = append(names, w.Items...)
		}
		if fmt.Sprintf("%q", got.names) != fmt.Sprintf("%q", names) {
			t.Fatalf("body %q: batch names %q, want %q", body, got.names, names)
		}
	})
}

// TestAppendInternMatchesIntern checks the batch's items: each
// transaction canonical, and the dictionary grown exactly as interning
// every name in turn grows it.
func TestAppendInternMatchesIntern(t *testing.T) {
	body := `{"table":"t","transactions":[` +
		`{"at":"2024-01-29T12:00:00Z","items":["milk","bread","milk","eggs"]},` +
		`{"at":"2024-01-29T13:00:00Z","items":["jam","bread"]},` +
		`{"at":"2024-01-29T14:00:00Z","items":["zé","jam","a"]}]}`
	b, err := decodeAppend([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceAppend([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	dict, ref := itemset.NewDict(), itemset.NewDict()
	dict.Intern("bread")
	ref.Intern("bread")
	batch := b.intern(dict)
	for i, tx := range want.Transactions {
		var items []itemset.Item
		for _, name := range tx.Items {
			items = append(items, ref.Intern(name))
		}
		if w := itemset.New(items...); !batch[i].Items.Equal(w) || !batch[i].At.Equal(tx.At) {
			t.Errorf("transaction %d: %v at %v, want %v at %v", i, batch[i].Items, batch[i].At, w, tx.At)
		}
	}
	if got, want := dict.SortedNames(false), ref.SortedNames(false); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dictionary %q, want %q", got, want)
	}
}

// appendBenchBody is a 250-transaction batch shaped like the
// benchmark's ingest: ten items each from a thousand names.
func appendBenchBody(dict *itemset.Dict) []byte {
	rng := rand.New(rand.NewSource(1998))
	at := time.Date(1998, 1, 10, 0, 0, 0, 0, time.UTC)
	req := appendRequest{Table: "baskets", Transactions: make([]appendTx, 250)}
	for i := range req.Transactions {
		items := make([]string, 10)
		for j := range items {
			items[j] = fmt.Sprintf("item%04d", rng.Intn(1000))
		}
		req.Transactions[i] = appendTx{At: at.Add(time.Duration(i) * 5 * time.Minute), Items: items}
	}
	for i := 0; i < 1000; i++ {
		dict.Intern(fmt.Sprintf("item%04d", i))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkAppendDecode times decoding and interning one append body on
// a warm dictionary: encoding/json with an InternAll per transaction
// (the handler's former path) against the one-pass decoder and one
// InternBatch.
func BenchmarkAppendDecode(b *testing.B) {
	dict := itemset.NewDict()
	body := appendBenchBody(dict)
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req appendRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			for _, tx := range req.Transactions {
				_ = dict.InternAll(tx.Items...)
			}
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := decodeAppend(body)
			if err != nil {
				b.Fatal(err)
			}
			_ = batch.intern(dict)
		}
	})
}
