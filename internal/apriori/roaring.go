package apriori

import (
	"math/bits"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Roaring-style compressed TID bitmaps. A transaction universe [0, n)
// is split into 2^16-bit containers; each container stores its slice of
// an item's TID set in whichever of three representations is smallest:
//
//   - array: sorted uint16 low-bits, for sparse containers (≤ 4096 TIDs)
//   - words: a packed 1024×uint64 bitmap, for dense containers
//   - runs:  sorted inclusive [start, last] spans, for clustered TIDs
//
// Intersection dispatches per container pair — array∧array is a
// galloping merge, array∧words a bit probe, words∧words AND+POPCNT,
// runs variants walk spans — and empty containers are skipped outright,
// so a sparse item stops paying the full-universe O(n/64) word scan the
// flat BitmapIndex charges every candidate.
const (
	containerBits  = 1 << 16
	containerWords = containerBits / 64 // 1024
	// arrayMaxCard is the array→words conversion threshold: above it a
	// packed bitmap (8 KiB) is smaller than 2 bytes per TID.
	arrayMaxCard = 4096
)

type containerKind uint8

const (
	kindArray containerKind = iota
	kindWords
	kindRuns
)

// runSpan is one run of consecutive TIDs, inclusive on both ends.
type runSpan struct{ start, last uint16 }

// container holds one 2^16-TID block of an item bitmap. Exactly one of
// arr/words/runs is populated, per kind; card is the number of set
// bits. A container with card == 0 is treated as empty everywhere.
type container struct {
	kind  containerKind
	card  int
	arr   []uint16
	words []uint64
	runs  []runSpan
}

// rangeCount counts the container's set bits in local positions
// [lo, hi), 0 ≤ lo < hi ≤ containerBits.
func (c *container) rangeCount(lo, hi int) int {
	if c.card == 0 || lo >= hi {
		return 0
	}
	switch c.kind {
	case kindArray:
		i := searchU16(c.arr, uint16(lo))
		j := len(c.arr)
		if hi < containerBits {
			j = searchU16(c.arr, uint16(hi))
		}
		return j - i
	case kindWords:
		return PopcountRange(c.words, lo, hi)
	default:
		n := 0
		for _, r := range c.runs {
			s, e := int(r.start), int(r.last)+1
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e > s {
				n += e - s
			}
		}
		return n
	}
}

// searchU16 returns the first index i with arr[i] >= v, or len(arr).
func searchU16(arr []uint16, v uint16) int {
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Roaring is one item's compressed TID bitmap: a dense directory of
// containers indexed by TID>>16, nil for an all-zero block. It is
// immutable after finalize, so any number of goroutines may intersect
// against it concurrently.
type Roaring struct {
	n    int
	card int
	cs   []*container
}

// add sets TID tid. TIDs must arrive in strictly ascending order (the
// index builder scans transactions in row order and each transaction is
// a canonical deduplicated set, so this holds by construction).
func (r *Roaring) add(tid int) {
	ci := tid >> 16
	lo := uint16(tid & (containerBits - 1))
	c := r.cs[ci]
	if c == nil {
		c = &container{kind: kindArray}
		r.cs[ci] = c
	}
	if c.kind == kindArray {
		if c.card < arrayMaxCard {
			c.arr = append(c.arr, lo)
			c.card++
			r.card++
			return
		}
		w := make([]uint64, containerWords)
		for _, v := range c.arr {
			w[v>>6] |= 1 << uint(v&63)
		}
		c.kind = kindWords
		c.words = w
		c.arr = nil
	}
	c.words[lo>>6] |= 1 << uint(lo&63)
	c.card++
	r.card++
}

// finalize converts containers to the run representation where runs are
// the smallest encoding (4 bytes per run vs 2 per array value vs a
// fixed 8 KiB of words).
func (r *Roaring) finalize() {
	for _, c := range r.cs {
		if c != nil {
			c.maybeRuns()
		}
	}
}

func (c *container) maybeRuns() {
	var nr int
	switch c.kind {
	case kindArray:
		nr = arrayNumRuns(c.arr)
	case kindWords:
		nr = wordsNumRuns(c.words)
	default:
		return
	}
	limit := 2 * c.card
	if limit > 2*arrayMaxCard {
		limit = 2 * arrayMaxCard
	}
	if 4*nr >= limit {
		return
	}
	runs := make([]runSpan, 0, nr)
	if c.kind == kindArray {
		runs = arrayToRuns(c.arr, runs)
	} else {
		runs = wordsToRuns(c.words, runs)
	}
	c.kind = kindRuns
	c.runs = runs
	c.arr = nil
	c.words = nil
}

func arrayNumRuns(arr []uint16) int {
	nr := 0
	for i, v := range arr {
		if i == 0 || v != arr[i-1]+1 {
			nr++
		}
	}
	return nr
}

// wordsNumRuns counts runs with the start-bit trick: a bit starts a run
// iff it is set and its predecessor (carrying across words) is clear.
func wordsNumRuns(words []uint64) int {
	nr := 0
	carry := uint64(0)
	for _, w := range words {
		nr += bits.OnesCount64(w &^ ((w << 1) | carry))
		carry = w >> 63
	}
	return nr
}

func arrayToRuns(arr []uint16, runs []runSpan) []runSpan {
	for i := 0; i < len(arr); {
		j := i + 1
		for j < len(arr) && arr[j] == arr[j-1]+1 {
			j++
		}
		runs = append(runs, runSpan{start: arr[i], last: arr[j-1]})
		i = j
	}
	return runs
}

func wordsToRuns(words []uint64, runs []runSpan) []runSpan {
	pos := nextSet(words, 0)
	for pos < containerBits {
		end := nextClear(words, pos)
		runs = append(runs, runSpan{start: uint16(pos), last: uint16(end - 1)})
		pos = nextSet(words, end)
	}
	return runs
}

// nextSet returns the first set bit position ≥ pos, or containerBits.
func nextSet(words []uint64, pos int) int {
	w := pos >> 6
	if w >= len(words) {
		return containerBits
	}
	if cur := words[w] >> uint(pos&63); cur != 0 {
		return pos + bits.TrailingZeros64(cur)
	}
	for w++; w < len(words); w++ {
		if words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(words[w])
		}
	}
	return containerBits
}

// nextClear returns the first clear bit position ≥ pos, or containerBits.
func nextClear(words []uint64, pos int) int {
	w := pos >> 6
	if w >= len(words) {
		return containerBits
	}
	if cur := ^words[w] >> uint(pos&63); cur != 0 {
		return pos + bits.TrailingZeros64(cur)
	}
	for w++; w < len(words); w++ {
		if inv := ^words[w]; inv != 0 {
			return w<<6 + bits.TrailingZeros64(inv)
		}
	}
	return containerBits
}

// RangeCount counts the set bits in TID positions [lo, hi). The
// temporal miners use it to slice one intersection into per-granule
// counts, exactly like PopcountRange on flat bitmaps.
func (r *Roaring) RangeCount(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > r.n {
		hi = r.n
	}
	if lo >= hi || r.card == 0 {
		return 0
	}
	total := 0
	for ci := lo >> 16; ci <= (hi-1)>>16; ci++ {
		c := r.cs[ci]
		if c == nil || c.card == 0 {
			continue
		}
		base := ci << 16
		l, h := lo-base, hi-base
		if l < 0 {
			l = 0
		}
		if h > containerBits {
			h = containerBits
		}
		if l == 0 && h == containerBits {
			total += c.card
			continue
		}
		total += c.rangeCount(l, h)
	}
	return total
}

// --- count-only intersection kernels -------------------------------

// gallopFactor is the length skew at which the array∧array kernel
// switches from a linear merge to galloping probes of the longer side.
const gallopFactor = 32

// splatRunLen is the candidate-run length at which the batched counting
// path splats the shared prefix container into a word buffer (two
// passes over the prefix) rather than merging it per candidate.
const splatRunLen = 4

// intersectCard returns |a ∧ b| without materialising the result.
func intersectCard(a, b *container) int {
	if a.kind > b.kind {
		a, b = b, a
	}
	switch a.kind {
	case kindArray:
		switch b.kind {
		case kindArray:
			return cardArrays(a.arr, b.arr)
		case kindWords:
			return cardArrayWords(a.arr, b.words)
		default:
			return cardArrayRuns(a.arr, b.runs)
		}
	case kindWords:
		if b.kind == kindWords {
			return AndCount(a.words, b.words)
		}
		return cardWordsRuns(a.words, b.runs)
	default:
		return cardRuns(a.runs, b.runs)
	}
}

// gallopSearch returns the first index i ≥ lo with b[i] >= v, or
// len(b), by exponential probing followed by binary search. Callers
// walk b left to right, so lo advances monotonically and the probe
// starts where the previous value left off.
func gallopSearch(b []uint16, lo int, v uint16) int {
	if lo >= len(b) || b[lo] >= v {
		return lo
	}
	// invariant below: b[lo] < v and (hi == len(b) or b[hi] >= v)
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func cardArrays(a, b []uint16) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= gallopFactor*len(a)+16 {
		pos := 0
		for _, v := range a {
			pos = gallopSearch(b, pos, v)
			if pos >= len(b) {
				break
			}
			if b[pos] == v {
				n++
				pos++
			}
		}
		return n
	}
	// Branchless merge: on random data the three-way comparison is an
	// unpredictable branch costing a pipeline flush per element; the
	// SETcc form advances both cursors data-independently.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		eq, le, ge := 0, 0, 0
		if va == vb {
			eq = 1
		}
		if va <= vb {
			le = 1
		}
		if vb <= va {
			ge = 1
		}
		n += eq
		i += le
		j += ge
	}
	return n
}

func cardArrayWords(arr []uint16, words []uint64) int {
	n := 0
	for _, v := range arr {
		n += int(words[v>>6] >> uint(v&63) & 1)
	}
	return n
}

func cardArrayRuns(arr []uint16, runs []runSpan) int {
	n, ri := 0, 0
	for _, v := range arr {
		for ri < len(runs) && runs[ri].last < v {
			ri++
		}
		if ri == len(runs) {
			break
		}
		if v >= runs[ri].start {
			n++
		}
	}
	return n
}

func cardWordsRuns(words []uint64, runs []runSpan) int {
	n := 0
	for _, r := range runs {
		n += PopcountRange(words, int(r.start), int(r.last)+1)
	}
	return n
}

// splatContainer sets c's bits in the all-zero word buffer w; the
// caller must undo it with unsplatContainer before reusing w. The
// batched counting path uses it to turn a shared prefix container into
// a bitset once per run, so every candidate probe is branchless instead
// of a merge with data-dependent branches.
func splatContainer(w []uint64, c *container) {
	switch c.kind {
	case kindArray:
		for _, v := range c.arr {
			w[v>>6] |= 1 << uint(v&63)
		}
	case kindWords:
		copy(w, c.words)
	default:
		for _, r := range c.runs {
			FillRange(w, int(r.start), int(r.last)+1)
		}
	}
}

// unsplatContainer zeroes exactly the words splatContainer touched.
func unsplatContainer(w []uint64, c *container) {
	switch c.kind {
	case kindArray:
		for _, v := range c.arr {
			w[v>>6] = 0
		}
	case kindWords:
		clear(w)
	default:
		for _, r := range c.runs {
			for wi := int(r.start) >> 6; wi <= int(r.last)>>6; wi++ {
				w[wi] = 0
			}
		}
	}
}

// cardWithWords counts |c ∧ w| where w is a splatted word view.
func cardWithWords(c *container, w []uint64) int {
	switch c.kind {
	case kindArray:
		return cardArrayWords(c.arr, w)
	case kindWords:
		return AndCount(c.words, w)
	default:
		return cardWordsRuns(w, c.runs)
	}
}

func cardRuns(a, b []runSpan) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := int(a[i].start), int(a[i].last)
		if s := int(b[j].start); s > lo {
			lo = s
		}
		if e := int(b[j].last); e < hi {
			hi = e
		}
		if hi >= lo {
			n += hi - lo + 1
		}
		if a[i].last < b[j].last {
			i++
		} else if a[i].last > b[j].last {
			j++
		} else {
			i++
			j++
		}
	}
	return n
}

// --- materialising intersection kernels ----------------------------

// accSlot is one container-sized accumulator cell: the current result
// container plus reusable backing buffers so chained intersections
// never allocate in steady state. The result of any kernel writing an
// array is bounded by the shorter array input, itself ≤ arrayMaxCard,
// so ownArr's fixed capacity always suffices; ownRuns grows on demand.
type accSlot struct {
	c        container
	ownArr   []uint16
	ownWords []uint64
	ownRuns  []runSpan
}

func (s *accSlot) clear() { s.c = container{} }

func (s *accSlot) arrBuf() []uint16 {
	if s.ownArr == nil {
		s.ownArr = make([]uint16, 0, arrayMaxCard)
	}
	return s.ownArr[:0]
}

func (s *accSlot) wordsBuf() []uint64 {
	if s.ownWords == nil {
		s.ownWords = make([]uint64, containerWords)
	}
	return s.ownWords
}

// intersectInto sets dst.c = a ∧ b using dst's own buffers. dst must
// not be (or share buffers with) a or b.
func intersectInto(dst *accSlot, a, b *container) {
	if a.kind > b.kind {
		a, b = b, a
	}
	switch a.kind {
	case kindArray:
		var out []uint16
		switch b.kind {
		case kindArray:
			out = intoArrays(dst.arrBuf(), a.arr, b.arr)
		case kindWords:
			out = intoArrayWords(dst.arrBuf(), a.arr, b.words)
		default:
			out = intoArrayRuns(dst.arrBuf(), a.arr, b.runs)
		}
		dst.c = container{kind: kindArray, card: len(out), arr: out}
	case kindWords:
		w := dst.wordsBuf()
		var card int
		if b.kind == kindWords {
			card = intoWords(w, a.words, b.words)
		} else {
			card = intoWordsRuns(w, a.words, b.runs)
		}
		dst.c = container{kind: kindWords, card: card, words: w}
	default:
		out, card := intoRuns(dst.ownRuns[:0], a.runs, b.runs)
		dst.ownRuns = out
		dst.c = container{kind: kindRuns, card: card, runs: out}
	}
}

func intoArrays(out, a, b []uint16) []uint16 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return out
	}
	if len(b) >= gallopFactor*len(a)+16 {
		pos := 0
		for _, v := range a {
			pos = gallopSearch(b, pos, v)
			if pos >= len(b) {
				break
			}
			if b[pos] == v {
				out = append(out, v)
				pos++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func intoArrayWords(out, arr []uint16, words []uint64) []uint16 {
	for _, v := range arr {
		if words[v>>6]>>uint(v&63)&1 != 0 {
			out = append(out, v)
		}
	}
	return out
}

func intoArrayRuns(out, arr []uint16, runs []runSpan) []uint16 {
	ri := 0
	for _, v := range arr {
		for ri < len(runs) && runs[ri].last < v {
			ri++
		}
		if ri == len(runs) {
			break
		}
		if v >= runs[ri].start {
			out = append(out, v)
		}
	}
	return out
}

func intoWords(dst, a, b []uint64) int {
	card := 0
	_ = dst[containerWords-1]
	_ = a[containerWords-1]
	_ = b[containerWords-1]
	for w := 0; w < containerWords; w++ {
		x := a[w] & b[w]
		dst[w] = x
		card += bits.OnesCount64(x)
	}
	return card
}

// intoWordsRuns masks words down to the run spans: dst is zeroed, then
// each run copies its covered words (runs are disjoint and
// non-adjacent, so interior words belong to exactly one run).
func intoWordsRuns(dst, words []uint64, runs []runSpan) int {
	for w := range dst {
		dst[w] = 0
	}
	card := 0
	for _, r := range runs {
		lo, hi := int(r.start), int(r.last)
		loW, hiW := lo>>6, hi>>6
		loMask := ^uint64(0) << uint(lo&63)
		hiMask := ^uint64(0) >> uint(63-(hi&63))
		if loW == hiW {
			x := words[loW] & loMask & hiMask
			dst[loW] |= x
			card += bits.OnesCount64(x)
			continue
		}
		x := words[loW] & loMask
		dst[loW] |= x
		card += bits.OnesCount64(x)
		for w := loW + 1; w < hiW; w++ {
			dst[w] = words[w]
			card += bits.OnesCount64(words[w])
		}
		x = words[hiW] & hiMask
		dst[hiW] |= x
		card += bits.OnesCount64(x)
	}
	return card
}

func intoRuns(out, a, b []runSpan) ([]runSpan, int) {
	card, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := int(a[i].start), int(a[i].last)
		if s := int(b[j].start); s > lo {
			lo = s
		}
		if e := int(b[j].last); e < hi {
			hi = e
		}
		if hi >= lo {
			out = append(out, runSpan{start: uint16(lo), last: uint16(hi)})
			card += hi - lo + 1
		}
		if a[i].last < b[j].last {
			i++
		} else if a[i].last > b[j].last {
			j++
		} else {
			i++
			j++
		}
	}
	return out, card
}

// --- accumulators ---------------------------------------------------

// RoaringAcc is a reusable intersection accumulator: one accSlot per
// container of the TID universe. The result of an EachIntersection
// visit; valid only during the callback.
type RoaringAcc struct {
	n     int
	slots []accSlot
}

// Card returns the number of TIDs in the accumulated intersection.
func (a *RoaringAcc) Card() int {
	t := 0
	for i := range a.slots {
		t += a.slots[i].c.card
	}
	return t
}

// RangeCount counts intersection TIDs in [lo, hi), mirroring
// Roaring.RangeCount so per-granule slicing works on accumulators.
func (a *RoaringAcc) RangeCount(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > a.n {
		hi = a.n
	}
	if lo >= hi {
		return 0
	}
	total := 0
	for ci := lo >> 16; ci <= (hi-1)>>16 && ci < len(a.slots); ci++ {
		c := &a.slots[ci].c
		if c.card == 0 {
			continue
		}
		base := ci << 16
		l, h := lo-base, hi-base
		if l < 0 {
			l = 0
		}
		if h > containerBits {
			h = containerBits
		}
		if l == 0 && h == containerBits {
			total += c.card
			continue
		}
		total += c.rangeCount(l, h)
	}
	return total
}

// setItemView makes the accumulator a borrowed read-only view of one
// item's containers (the k == 1 case). Slot buffers are untouched.
func (a *RoaringAcc) setItemView(r *Roaring) {
	for ci := range a.slots {
		if c := r.cs[ci]; c != nil {
			a.slots[ci].c = *c
		} else {
			a.slots[ci].clear()
		}
	}
}

// intersectItems sets dst = a ∧ b for two item bitmaps.
func (dst *RoaringAcc) intersectItems(a, b *Roaring) {
	for ci := range dst.slots {
		s := &dst.slots[ci]
		ca, cb := a.cs[ci], b.cs[ci]
		if ca == nil || cb == nil || ca.card == 0 || cb.card == 0 {
			s.clear()
			continue
		}
		intersectInto(s, ca, cb)
	}
}

// intersectAccItem sets dst = src ∧ r. dst and src must be distinct.
func (dst *RoaringAcc) intersectAccItem(src *RoaringAcc, r *Roaring) {
	for ci := range dst.slots {
		s := &dst.slots[ci]
		ca := &src.slots[ci].c
		cb := r.cs[ci]
		if ca.card == 0 || cb == nil || cb.card == 0 {
			s.clear()
			continue
		}
		intersectInto(s, ca, cb)
	}
}

// --- the index ------------------------------------------------------

// RoaringIndex is the compressed counterpart of BitmapIndex: one
// Roaring bitmap per item, the same prefix-reuse intersection chain,
// plus a batched container-major counting path. Immutable after
// construction; scratch accumulators come from roaringScratchPool, not
// from the index (see BitmapIndex).
type RoaringIndex struct {
	n     int
	nc    int            // containers per bitmap
	ranks *itemset.Ranks // item → bitmap
	bits  []*Roaring     // nil for a kept item that never occurred
	empty *Roaring       // shared all-zero bitmap for absent items
}

// NewRoaringIndex ingests src once, assigning transaction IDs in scan
// order; keep filters indexed items exactly like NewBitmapIndex.
func NewRoaringIndex(src Source, keep *itemset.Ranks) *RoaringIndex {
	n := src.Len()
	nc := (n + containerBits - 1) / containerBits
	ix := &RoaringIndex{
		n:     n,
		nc:    nc,
		ranks: keep,
		empty: &Roaring{n: n, cs: make([]*container, nc)},
	}
	if keep == nil {
		ix.ranks = new(itemset.Ranks)
	}
	ix.bits = make([]*Roaring, ix.ranks.Len())
	row := 0
	src.ForEach(func(tx itemset.Set) {
		if row >= n {
			return // defensive: source delivered more rows than Len()
		}
		for _, x := range tx {
			ri := ix.ranks.Rank(x)
			if ri < 0 {
				if keep != nil {
					continue
				}
				ri = ix.ranks.Add(x)
				ix.bits = append(ix.bits, nil)
			}
			r := ix.bits[ri]
			if r == nil {
				r = &Roaring{n: n, cs: make([]*container, nc)}
				ix.bits[ri] = r
			}
			r.add(row)
		}
		row++
	})
	for _, r := range ix.bits {
		if r != nil {
			r.finalize()
		}
	}
	return ix
}

// N returns the number of transactions indexed.
func (ix *RoaringIndex) N() int { return ix.n }

func (ix *RoaringIndex) itemBits(x itemset.Item) *Roaring {
	if ri := ix.ranks.Rank(x); ri >= 0 && ix.bits[ri] != nil {
		return ix.bits[ri]
	}
	return ix.empty
}

// roaringScratch is the pooled per-goroutine working set: one
// accumulator per intersection-chain level, the per-run last-item
// directory used by the batched counting path, and a container-sized
// word buffer the batched path splats shared prefix containers into
// (see countInto). The buffer is all-zero between uses.
type roaringScratch struct {
	accs  []*RoaringAcc
	last  []*Roaring
	words []uint64
}

func (sc *roaringScratch) wordBuf() []uint64 {
	if sc.words == nil {
		sc.words = make([]uint64, containerWords)
	}
	return sc.words
}

// roaringScratchPool holds working sets of any index; getScratch fits
// one to the index it is drawn for and putScratch drops what it
// borrowed from that index, so a pooled working set never keeps a dead
// index's containers reachable.
var roaringScratchPool sync.Pool // *roaringScratch

func (ix *RoaringIndex) getScratch(levels int) *roaringScratch {
	sc, _ := roaringScratchPool.Get().(*roaringScratch)
	if sc == nil {
		sc = &roaringScratch{}
	}
	for len(sc.accs) < levels {
		sc.accs = append(sc.accs, &RoaringAcc{})
	}
	for _, a := range sc.accs[:levels] {
		a.n = ix.n
		if cap(a.slots) < ix.nc {
			a.slots = make([]accSlot, ix.nc)
		}
		a.slots = a.slots[:ix.nc]
	}
	return sc
}

// putScratch returns sc to the pool without the pointers into the
// index it served: the last-item directory, and the item view a k = 1
// EachIntersection leaves in the first accumulator.
func putScratch(sc *roaringScratch) {
	clear(sc.last[:cap(sc.last)])
	if len(sc.accs) > 0 {
		a := sc.accs[0]
		for ci := range a.slots {
			a.slots[ci].clear()
		}
	}
	roaringScratchPool.Put(sc)
}

// EachIntersection visits the compressed intersection of every
// candidate, in order, with the same contract as
// BitmapIndex.EachIntersection: one shared length k ≥ 1, canonical
// sorted order, prefix intersections reused across a same-prefix run.
// The accumulator passed to fn is scratch, valid only during the call.
func (ix *RoaringIndex) EachIntersection(cands []itemset.Set, fn func(i int, acc *RoaringAcc)) {
	if len(cands) == 0 {
		return
	}
	k := len(cands[0])
	levels := k - 1
	if levels < 1 {
		levels = 1
	}
	sc := ix.getScratch(levels)
	defer putScratch(sc)
	if k == 1 {
		view := sc.accs[0]
		for i, c := range cands {
			view.setItemView(ix.itemBits(c[0]))
			fn(i, view)
		}
		return
	}
	accs := sc.accs
	var prev itemset.Set
	for i, c := range cands {
		shared := 0
		for shared < len(prev) && c[shared] == prev[shared] {
			shared++
		}
		// accs[j-1] involves items [0..j]: valid while j+1 ≤ shared.
		j := shared
		if j < 1 {
			j = 1
		}
		for ; j < k; j++ {
			if j == 1 {
				accs[0].intersectItems(ix.itemBits(c[0]), ix.itemBits(c[1]))
			} else {
				accs[j-1].intersectAccItem(accs[j-2], ix.itemBits(c[j]))
			}
		}
		fn(i, accs[k-2])
		prev = c
	}
}

// fill implements verticalIndex: one intersection chain per candidate,
// one container range-count per slice. A single slice is the whole
// index, which the batched path counts without materialising the last
// intersection.
func (ix *RoaringIndex) fill(m *Counts, base int, cands []itemset.Set, bounds []int) {
	if m.flat != nil {
		ix.countInto(cands, m.flat[base:base+len(cands)])
		return
	}
	ix.EachIntersection(cands, func(i int, acc *RoaringAcc) {
		for s := 0; s+1 < len(bounds); s++ {
			if n := acc.RangeCount(bounds[s], bounds[s+1]); n != 0 {
				m.set(base+i, s, n)
			}
		}
	})
}

// countInto adds the support count of every candidate to counts.
// Candidates must share one length and be sorted (see EachIntersection).
// Counting is container-major: each maximal same-(k-1)-prefix run builds
// its prefix intersection once, then walks containers outer and
// candidates inner, so one prefix container stays hot while every
// candidate's last item intersects against it.
func (ix *RoaringIndex) countInto(cands []itemset.Set, counts []int32) {
	if len(cands) == 0 {
		return
	}
	k := len(cands[0])
	if k == 1 {
		for i, c := range cands {
			counts[i] += int32(ix.itemBits(c[0]).card)
		}
		return
	}
	levels := k - 2 // prefix chain only; the last item never materialises
	if levels < 1 {
		levels = 1
	}
	sc := ix.getScratch(levels)
	defer putScratch(sc)
	var prevPrefix itemset.Set
	lo := 0
	for lo < len(cands) {
		hi := lo + 1
		for hi < len(cands) && samePrefixK1(cands[lo], cands[hi]) {
			hi++
		}
		run := cands[lo:hi]
		last := sc.last[:0]
		for _, c := range run {
			last = append(last, ix.itemBits(c[k-1]))
		}
		sc.last = last
		prefix := run[0][:k-1]
		if k >= 3 {
			shared := 0
			for shared < len(prevPrefix) && prefix[shared] == prevPrefix[shared] {
				shared++
			}
			j := shared
			if j < 1 {
				j = 1
			}
			for ; j < k-1; j++ {
				if j == 1 {
					sc.accs[0].intersectItems(ix.itemBits(prefix[0]), ix.itemBits(prefix[1]))
				} else {
					sc.accs[j-1].intersectAccItem(sc.accs[j-2], ix.itemBits(prefix[j]))
				}
			}
		}
		prevPrefix = prefix
		var p0 *Roaring
		if k == 2 {
			p0 = ix.itemBits(prefix[0])
		}
		out := counts[lo:hi]
		for ci := 0; ci < ix.nc; ci++ {
			var pc *container
			if k == 2 {
				pc = p0.cs[ci]
				if pc == nil || pc.card == 0 {
					continue
				}
			} else {
				s := &sc.accs[k-3].slots[ci]
				if s.c.card == 0 {
					continue
				}
				pc = &s.c
			}
			// A long enough run amortises splatting the shared prefix
			// container into a word buffer, making every candidate probe
			// a branchless bit test instead of a data-dependent merge.
			if len(run) >= splatRunLen && pc.kind != kindWords {
				w := sc.wordBuf()
				splatContainer(w, pc)
				for i := range run {
					if cb := last[i].cs[ci]; cb != nil && cb.card > 0 {
						out[i] += int32(cardWithWords(cb, w))
					}
				}
				unsplatContainer(w, pc)
				continue
			}
			for i := range run {
				if cb := last[i].cs[ci]; cb != nil && cb.card > 0 {
					out[i] += int32(intersectCard(pc, cb))
				}
			}
		}
		lo = hi
	}
}
