package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
)

// The POST /v1/append body is {"table": …, "transactions": [{"at": …,
// "items": […]}, …]}. decodeAppend reads it in one forward pass over the
// bytes (two byte counts beforehand size its slices) and accepts exactly
// what json.Unmarshal into the structs
//
//	struct{ Table string; Transactions []struct{ At time.Time; Items []string } }
//
// accepts (FuzzAppendBody is the differential check):
//
//   - any whitespace and key order, keys matched case-insensitively,
//     unknown keys skipped after their value is validated;
//   - null leaves a string or "at" as it was and makes an array nil;
//   - a repeated key decodes into what the earlier one left, as
//     encoding/json does: the last one wins, and an array element that
//     is null or omits a key keeps the element an earlier array put at
//     that index;
//   - no trailing data and at most maxJSONDepth nested arrays and objects;
//   - a string holding a backslash or a byte ≥ 0x80 is unquoted by
//     json.Unmarshal on that token alone, so escapes, surrogates and
//     invalid UTF-8 come out as before; other strings are views into the
//     body;
//   - "at" is the raw token handed to time.Time.UnmarshalJSON.
//
// It interns nothing: the handler interns the batch only after the table
// lookup and admission.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// minTxBytes is the shortest transaction the handler accepts,
// {"at":"2006-01-02T15:04:05Z","items":[""]} and a comma: with the
// body's '{' count it bounds the transaction slice's size.
const minTxBytes = 43

// appendBatch is a decoded, validated append body, not yet interned.
type appendBatch struct {
	table string
	txs   []decodedTx
	names []string // every transaction's item names, concatenated in order
}

// decodedTx is one transaction of the body.
type decodedTx struct {
	at    time.Time
	items []string
}

// intern resolves the batch's names under one dictionary lock into one
// item buffer, in body order, then sorts and dedups each transaction in
// place within it. The buffer is the batch's only []Item allocation; the
// table copies the items when it stores them.
func (b *appendBatch) intern(dict *itemset.Dict) []tdb.Tx {
	items := make([]itemset.Item, len(b.names))
	dict.InternBatch(b.names, items)
	batch := make([]tdb.Tx, len(b.txs))
	for i, tx := range b.txs {
		n := len(tx.items)
		batch[i] = tdb.Tx{At: tx.at, Items: itemset.Canonical(items[:n:n])}
		items = items[n:]
	}
	return batch
}

// decodeAppend decodes and validates an append body.
func decodeAppend(body []byte) (appendBatch, error) {
	src := string(body)
	d := appendDecoder{src: src, names: make([]string, 0, strings.Count(src, `"`)/2)}
	var b appendBatch
	// A top-level null, which encoding/json takes as an empty request,
	// is refused here too, for want of a table.
	if d.space(); d.peek() != '{' {
		return b, d.fail("the body must be a JSON object")
	}
	if err := d.request(&b); err != nil {
		return b, err
	}
	if d.space(); d.pos < len(src) {
		return b, d.fail("trailing data after the object")
	}
	if b.table == "" {
		return b, fmt.Errorf("tarmd: append without a table")
	}
	if len(b.txs) == 0 {
		return b, fmt.Errorf("tarmd: append with no transactions")
	}
	total := 0
	for i, tx := range b.txs {
		if tx.at.IsZero() {
			return b, fmt.Errorf("tarmd: transaction %d has no timestamp", i)
		}
		if err := tdb.CheckTime(tx.at); err != nil {
			return b, fmt.Errorf("tarmd: transaction %d: %w", i, err)
		}
		if len(tx.items) == 0 {
			return b, fmt.Errorf("tarmd: transaction %d has no items", i)
		}
		total += len(tx.items)
	}
	b.names = d.names
	if d.merged {
		// A repeated key left names the final transactions do not hold.
		b.names = make([]string, 0, total)
		for _, tx := range b.txs {
			b.names = append(b.names, tx.items...)
		}
	}
	return b, nil
}

// appendDecoder is the state of one pass over a body.
type appendDecoder struct {
	src     string
	pos     int
	depth   int
	names   []string // arena the items arrays decode onto, in body order
	scratch []byte   // the "at" token handed to time.Time.UnmarshalJSON
	merged  bool     // a repeated key: names is not the transactions' concatenation
}

func (d *appendDecoder) fail(what string) error {
	return fmt.Errorf("tarmd: bad JSON body: %s (offset %d)", what, d.pos)
}

func (d *appendDecoder) peek() byte {
	if d.pos < len(d.src) {
		return d.src[d.pos]
	}
	return 0
}

func (d *appendDecoder) space() {
	for d.pos < len(d.src) {
		if c := d.src[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.pos++
	}
}

// open consumes the '{' or '[' at pos.
func (d *appendDecoder) open() error {
	if d.depth++; d.depth > maxJSONDepth {
		return d.fail("exceeded max depth")
	}
	d.pos++
	return nil
}

// more steps to member or element i of the object or array just opened:
// past the ',' before it, or past the closing bracket, reporting false.
func (d *appendDecoder) more(close byte, i int) (bool, error) {
	d.space()
	c := d.peek()
	switch {
	case c == close:
		d.pos++
		d.depth--
		return false, nil
	case i == 0:
		return true, nil
	case c == ',':
		d.pos++
		d.space()
		return true, nil
	}
	return false, d.fail(fmt.Sprintf("expected ',' or '%c'", close))
}

// key reads an object member's key and the ':' after it.
func (d *appendDecoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.fail("expected a string key")
	}
	k, err := d.str()
	if err != nil {
		return "", err
	}
	if d.space(); d.peek() != ':' {
		return "", d.fail("expected ':' after a key")
	}
	d.pos++
	d.space()
	return k, nil
}

// request decodes the top-level object into b.
func (d *appendDecoder) request(b *appendBatch) error {
	if err := d.open(); err != nil {
		return err
	}
	seenTxs := false
	for i := 0; ; i++ {
		more, err := d.more('}', i)
		if !more || err != nil {
			return err
		}
		k, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(k, "table"):
			switch d.peek() {
			case '"':
				b.table, err = d.str()
			case 'n':
				err = d.literal("null")
			default:
				err = d.fail("table must be a string")
			}
		case strings.EqualFold(k, "transactions"):
			d.merged = d.merged || seenTxs
			seenTxs = true
			switch d.peek() {
			case '[':
				b.txs, err = d.transactions(b.txs)
			case 'n':
				b.txs, err = nil, d.literal("null")
			default:
				err = d.fail("transactions must be an array")
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// transactions decodes the transactions array into old's storage, the
// way encoding/json decodes into a slice: element i decodes into what a
// previous "transactions" key left at index i, within old's capacity.
func (d *appendDecoder) transactions(old []decodedTx) ([]decodedTx, error) {
	if err := d.open(); err != nil {
		return nil, err
	}
	txs := old[:0]
	if cap(txs) == 0 {
		txs = make([]decodedTx, 0, min(strings.Count(d.src, "{"), len(d.src)/minTxBytes+1))
	}
	for i := 0; ; i++ {
		more, err := d.more(']', i)
		if err != nil {
			return nil, err
		}
		if !more {
			if i == 0 {
				return nil, nil // a fresh empty slice: nothing left to reuse
			}
			return txs, nil
		}
		if i < cap(txs) {
			txs = txs[:i+1]
		} else {
			txs = append(txs, decodedTx{})
		}
		switch d.peek() {
		case '{':
			err = d.tx(&txs[i])
		case 'n':
			err = d.literal("null")
		default:
			err = d.fail("a transaction must be an object")
		}
		if err != nil {
			return nil, err
		}
	}
}

// tx decodes one transaction object into tx.
func (d *appendDecoder) tx(tx *decodedTx) error {
	if err := d.open(); err != nil {
		return err
	}
	seenItems := false
	for i := 0; ; i++ {
		more, err := d.more('}', i)
		if !more || err != nil {
			return err
		}
		k, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(k, "at"):
			err = d.at(&tx.at)
		case strings.EqualFold(k, "items"):
			d.merged = d.merged || seenItems
			seenItems = true
			switch d.peek() {
			case '[':
				tx.items, err = d.items(tx.items)
			case 'n':
				tx.items, err = nil, d.literal("null")
			default:
				err = d.fail("items must be an array")
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// at decodes an "at" value as encoding/json does: the raw token, null
// included, goes to time.Time.UnmarshalJSON, which takes only strings.
func (d *appendDecoder) at(t *time.Time) error {
	if c := d.peek(); c != '"' && c != 'n' {
		return d.fail("at must be a string")
	}
	start := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	d.scratch = append(d.scratch[:0], d.src[start:d.pos]...)
	if err := t.UnmarshalJSON(d.scratch); err != nil {
		return fmt.Errorf("tarmd: bad JSON body: at: %w", err)
	}
	return nil
}

// items decodes an items array onto the names arena. Element i starts as
// what old holds at index i within its capacity (what encoding/json
// would decode into), so a null element keeps it; the tail of old past
// the new length is kept as spare capacity for a later "items" key.
func (d *appendDecoder) items(old []string) ([]string, error) {
	if err := d.open(); err != nil {
		return nil, err
	}
	start := len(d.names)
	for i := 0; ; i++ {
		more, err := d.more(']', i)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		var name string
		if i < cap(old) {
			name = old[:cap(old)][i]
		}
		switch d.peek() {
		case '"':
			name, err = d.str()
		case 'n':
			err = d.literal("null")
		default:
			err = d.fail("an item must be a string")
		}
		if err != nil {
			return nil, err
		}
		d.names = append(d.names, name)
	}
	n := len(d.names) - start
	if n == 0 {
		return nil, nil
	}
	if n < cap(old) {
		d.names = append(d.names, old[n:cap(old)]...)
	}
	return d.names[start : start+n : len(d.names)], nil
}

// str reads a string value: a view into the body when it is plain ASCII
// without escapes, else the token unquoted by encoding/json.
func (d *appendDecoder) str() (string, error) {
	start := d.pos
	plain, err := d.scanString()
	if err != nil {
		return "", err
	}
	if plain {
		return d.src[start+1 : d.pos-1], nil
	}
	var s string
	if err := json.Unmarshal([]byte(d.src[start:d.pos]), &s); err != nil {
		return "", fmt.Errorf("tarmd: bad JSON body: %w", err)
	}
	return s, nil
}

// scanString validates the string token at pos and steps past it. plain
// reports a token with no backslash and no byte ≥ 0x80.
func (d *appendDecoder) scanString() (plain bool, err error) {
	i := d.pos + 1
	for i < len(d.src) && plainByte[d.src[i]] {
		i++
	}
	if i < len(d.src) && d.src[i] == '"' {
		d.pos = i + 1
		return true, nil
	}
	plain = true
	for ; i < len(d.src); i++ {
		switch c := d.src[i]; {
		case c == '"':
			d.pos = i + 1
			return plain, nil
		case c < 0x20:
			d.pos = i
			return false, d.fail("control character in a string")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i++; i >= len(d.src) {
				break
			}
			switch d.src[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d.src) || !isHex(d.src[i+1]) || !isHex(d.src[i+2]) || !isHex(d.src[i+3]) || !isHex(d.src[i+4]) {
					d.pos = i
					return false, d.fail(`bad \u escape`)
				}
				i += 4
			default:
				d.pos = i
				return false, d.fail("bad escape in a string")
			}
		}
	}
	d.pos = len(d.src)
	return false, d.fail("unterminated string")
}

// plainByte marks the bytes a string can hold as they are: not '"' or
// '\\', not a control character, ASCII.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (d *appendDecoder) literal(lit string) error {
	if !strings.HasPrefix(d.src[d.pos:], lit) {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// skip validates and steps past any JSON value.
func (d *appendDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			more, err := d.more('}', i)
			if !more || err != nil {
				return err
			}
			if _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			more, err := d.more(']', i)
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.fail("expected a value")
}

// number steps past a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *appendDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.fail("bad number")
	}
	if d.peek() == '.' {
		d.pos++
		if d.digits() == 0 {
			return d.fail("bad number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if d.digits() == 0 {
			return d.fail("bad number")
		}
	}
	return nil
}

func (d *appendDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.src) && '0' <= d.src[d.pos] && d.src[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}
