package tdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"github.com/tarm-project/tarm/internal/itemset"
)

// On-disk format. Every file is
//
//	magic(4) version(u32) body... crc32(u32 over magic..body)
//
// written atomically via a temp file and rename, so readers never see a
// half-written table. Corruption (truncation, bit flips) is detected by
// the trailing CRC before any content is trusted.
//
// Dictionary, relational table and checkpoint files are at fmtVersion.
// The files that hold transactions — segments, their manifest and the
// WAL — are at gapRows, and are also read at fixedRows, the coding
// they had before it: every integer fixed-width, so a transaction cost
// 8 bytes a timestamp and an ID and 4 an item. Only gapRows is
// written.
const (
	magicTable = "TDBT"
	magicDict  = "TDBD"
	fmtVersion = 1

	fixedRows = 1
	gapRows   = 2
)

type encoder struct {
	buf bytes.Buffer
}

func (e *encoder) u8(v uint8) { e.buf.WriteByte(v) }
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string)  { e.u32(uint32(len(s))); e.buf.WriteString(s) }

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("tdb: truncated file reading %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// items appends an item list in the fixedRows coding, {count u32,
// items u32…}, to dst. A count the bytes left cannot hold, or items
// that are not canonical, is an error, which the caller prefixes with
// what it is reading; a short read sets d.err.
func (d *decoder) items(dst itemset.Set) (itemset.Set, error) {
	n := int(d.u32())
	if d.err != nil {
		return dst, nil
	}
	if d.off+4*n > len(d.b) {
		return dst, fmt.Errorf("implausible item count %d", n)
	}
	k := len(dst)
	for range n {
		dst = append(dst, itemset.Item(binary.LittleEndian.Uint32(d.b[d.off:])))
		d.off += 4
	}
	if !dst[k:].Valid() {
		return dst, fmt.Errorf("non-canonical itemset")
	}
	return dst, nil
}

// The gapRows coding of a transaction, which the segment writer and the
// WAL share: its timestamp as a zig-zag varint delta from the row
// before it (from zero for the first), in a segment its ID the same
// way, then a uvarint item count and the items as uvarint gaps — the
// first item as it is, each later one as its distance past the one
// before less one. A decoded list is therefore strictly increasing
// whatever the bytes say, and only the shortest encoding of each value
// is read, so a row decodes from exactly one byte string.

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of x's zig-zag varint.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// appendGaps appends the gap coding of a canonical item list, as the
// arena holds it at either width.
func appendGaps[T uint16 | itemset.Item](p []byte, items []T) []byte {
	p = binary.AppendUvarint(p, uint64(len(items)))
	next := uint64(0)
	for _, x := range items {
		p = binary.AppendUvarint(p, uint64(x)-next)
		next = uint64(x) + 1
	}
	return p
}

// gapsLen is the length of appendGaps' coding of items.
func gapsLen[T uint16 | itemset.Item](items []T) int {
	n := uvarintLen(uint64(len(items)))
	next := uint64(0)
	for _, x := range items {
		n += uvarintLen(uint64(x) - next)
		next = uint64(x) + 1
	}
	return n
}

// uvarint reads a uvarint, a one-byte one without binary.Uvarint's
// loop. A varint cut short is a short read; one that overflows 64 bits
// or is longer than its value needs (a last byte of zero) is malformed.
// Either leaves d.off where it was; callers check d.err before anything
// they decoded.
func (d *decoder) uvarint() uint64 {
	b := d.b[d.off:]
	if len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0])
	}
	if len(b) >= 8 {
		// Up to eight bytes at once, without binary.Uvarint's loop over
		// them (a timestamp delta takes six): n is where the first byte
		// that does not continue lies, and the seven low bits of the
		// bytes up to it close up.
		x := binary.LittleEndian.Uint64(b)
		if stop := ^x & 0x8080808080808080; stop != 0 {
			n := bits.TrailingZeros64(stop)>>3 + 1
			if x>>(8*n-8)&0xff != 0 {
				x &= 1<<(8*n) - 1
				d.off += n
				return x&0x7f | x>>1&0x3f80 | x>>2&0x1fc000 | x>>3&0xfe00000 |
					x>>4&0x7f0000000 | x>>5&0x3f800000000 | x>>6&0x1fc0000000000 | x>>7&0xfe000000000000
			}
		}
	}
	v, n := binary.Uvarint(b)
	if n <= 0 || b[n-1] == 0 {
		d.badVarint(n)
		return 0
	}
	d.off += n
	return v
}

// badVarint records why the varint at d.off could not be read: n is
// what binary.Uvarint returned for it.
func (d *decoder) badVarint(n int) {
	if n == 0 {
		d.fail("varint")
	} else if d.err == nil {
		d.err = fmt.Errorf("tdb: malformed varint at offset %d", d.off)
	}
}

// varint reads a zig-zag varint.
func (d *decoder) varint() int64 {
	v := d.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

// gaps appends an item list in the gapRows coding to dst. A count
// larger than the bytes left, or an item past the Item range, is an
// error, which the caller prefixes with what it is reading; a short
// read or a malformed varint sets d.err.
func (d *decoder) gaps(dst itemset.Set) (itemset.Set, error) {
	n := d.uvarint()
	if d.err != nil {
		return dst, nil
	}
	if n > uint64(len(d.b)-d.off) {
		return dst, fmt.Errorf("implausible item count %d", n)
	}
	k := len(dst)
	dst = slices.Grow(dst, int(n))[:k+int(n)]
	out := dst[k:]
	// next is one past the item before; it stays below 2⁶⁴ because
	// every gap is below 2³², and only the last item, the largest, is
	// held to the Item range.
	next := uint64(0)
	b, off := d.b, d.off
	for i := range out {
		// A gap of one or two bytes — nearly all of them — is read
		// without a branch on its length, which no predictor guesses:
		// c is 1 when the first byte continues. Longer or malformed
		// gaps, and a last byte with nothing after it, take uvarint.
		if off+1 < len(b) {
			b0, b1 := uint64(b[off]), uint64(b[off+1])
			c := b0 >> 7
			if c&(b1>>7|(b1-1)>>63) == 0 {
				next += b0&0x7f | b1<<7&-c
				off += 1 + int(c)
				out[i] = itemset.Item(next)
				next++
				continue
			}
		}
		d.off = off
		g := d.uvarint()
		if d.err != nil {
			return dst, nil
		}
		if g > math.MaxUint32 {
			return dst, fmt.Errorf("item past the item range")
		}
		off = d.off
		next += g
		out[i] = itemset.Item(next)
		next++
	}
	d.off = off
	if next > math.MaxUint32+1 {
		return dst, fmt.Errorf("item past the item range")
	}
	return dst, nil
}

// writeAtomic writes body+CRC to path via a temp file and rename.
func writeAtomic(path string, body []byte) error {
	sum := crc32.ChecksumIEEE(body)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("tdb: create %s: %w", tmp, err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(body); err == nil {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], sum)
		_, err = w.Write(crc[:])
		if err == nil {
			err = w.Flush()
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tdb: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tdb: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tdb: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tdb: rename %s: %w", tmp, err)
	}
	// The rename itself lives in the directory, not the file: without
	// a directory fsync a power cut can roll the entry back to the old
	// file even though the new content was synced. The checkpoint path
	// depends on this — it truncates the WAL on the strength of these
	// renames being durable.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("tdb: sync dir for %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and unlinks inside it survive
// power loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readChecked loads a file, validates the trailing CRC and the magic,
// and returns the body after the magic+version header with the version,
// which is refused past newest.
func readChecked(path, magic string, newest uint32) (*decoder, uint32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("tdb: read %s: %w", path, err)
	}
	if len(raw) < len(magic)+8 {
		return nil, 0, fmt.Errorf("tdb: %s: file too short (%d bytes)", path, len(raw))
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	want := binary.LittleEndian.Uint32(crcBytes)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, 0, fmt.Errorf("tdb: %s: checksum mismatch (file corrupt)", path)
	}
	d := &decoder{b: body}
	if got := string(body[:4]); got != magic {
		return nil, 0, fmt.Errorf("tdb: %s: bad magic %q, want %q", path, got, magic)
	}
	d.off = 4
	v := d.u32()
	if v < 1 || v > newest {
		return nil, 0, fmt.Errorf("tdb: %s: unsupported format version %d", path, v)
	}
	return d, v, nil
}

// ---------------------------------------------------------------------
// Relational tables.

func encodeValue(e *encoder, v Value) {
	e.u8(uint8(v.K))
	switch v.K {
	case KindNull:
	case KindInt, KindBool, KindTime:
		e.i64(v.i)
	case KindFloat:
		e.f64(v.f)
	case KindString:
		e.str(v.s)
	}
}

func decodeValue(d *decoder) Value {
	k := Kind(d.u8())
	switch k {
	case KindNull:
		return Null()
	case KindInt:
		return Int(d.i64())
	case KindBool:
		return Value{K: KindBool, i: d.i64()}
	case KindTime:
		return Value{K: KindTime, i: d.i64()}
	case KindFloat:
		return Float(d.f64())
	case KindString:
		return Str(d.str())
	default:
		if d.err == nil {
			d.err = fmt.Errorf("tdb: unknown value kind %d at offset %d", k, d.off)
		}
		return Null()
	}
}

// SaveTable writes t to path.
func SaveTable(t *Table, path string) error {
	e := &encoder{}
	e.buf.WriteString(magicTable)
	e.u32(fmtVersion)
	e.str(t.name)
	e.u32(uint32(len(t.schema.Cols)))
	for _, c := range t.schema.Cols {
		e.str(c.Name)
		e.u8(uint8(c.Kind))
	}
	t.mu.RLock()
	e.u64(uint64(len(t.rows)))
	for _, row := range t.rows {
		for _, v := range row {
			encodeValue(e, v)
		}
	}
	t.mu.RUnlock()
	return writeAtomic(path, e.buf.Bytes())
}

// LoadTable reads a table written by SaveTable.
func LoadTable(path string) (*Table, error) {
	d, _, err := readChecked(path, magicTable, fmtVersion)
	if err != nil {
		return nil, err
	}
	name := d.str()
	ncols := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if ncols <= 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("tdb: %s: implausible column count %d", path, ncols)
	}
	cols := make([]Column, ncols)
	for i := range cols {
		cols[i] = Column{Name: d.str(), Kind: Kind(d.u8())}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("tdb: %s: %w", path, err)
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, fmt.Errorf("tdb: %s: %w", path, err)
	}
	nrows := d.u64()
	for i := uint64(0); i < nrows && d.err == nil; i++ {
		row := make(Row, ncols)
		for c := range row {
			row[c] = decodeValue(d)
		}
		if d.err == nil {
			if err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("tdb: %s: %w", path, err)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("tdb: %s: %d trailing bytes", path, len(d.b)-d.off)
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Item dictionaries.

// SaveDict writes a dictionary to path.
func SaveDict(dict *itemset.Dict, path string) error {
	e := &encoder{}
	e.buf.WriteString(magicDict)
	e.u32(fmtVersion)
	names := dict.SortedNames(false) // identifier order
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
	}
	return writeAtomic(path, e.buf.Bytes())
}

// LoadDict reads a dictionary written by SaveDict. Identifiers are
// reassigned in the saved order, so ids are stable across reloads.
func LoadDict(path string) (*itemset.Dict, error) {
	d, _, err := readChecked(path, magicDict, fmtVersion)
	if err != nil {
		return nil, err
	}
	n := int(d.u32())
	dict := itemset.NewDict()
	for i := 0; i < n && d.err == nil; i++ {
		dict.Intern(d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("tdb: %s: %d trailing bytes", path, len(d.b)-d.off)
	}
	if dict.Len() != n {
		return nil, fmt.Errorf("tdb: %s: dictionary contains duplicate names", path)
	}
	return dict, nil
}
