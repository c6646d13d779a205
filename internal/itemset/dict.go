package itemset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Dict is a bidirectional mapping between external item names (SKUs,
// page URLs, …) and the dense Item identifiers used by the miners.
// Identifiers are assigned in first-seen order starting at 0.
//
// Dict is safe for concurrent use; lookups take a read lock, Intern
// takes a write lock only when the name is new, and InternBatch takes
// one write lock for the whole batch.
type Dict struct {
	mu    sync.RWMutex
	byID  []string
	byKey map[string]Item
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]Item)}
}

// Intern returns the identifier for name, assigning a fresh one if the
// name has not been seen before.
func (d *Dict) Intern(name string) Item {
	d.mu.RLock()
	id, ok := d.byKey[name]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[name]; ok {
		return id
	}
	id = Item(len(d.byID))
	d.byID = append(d.byID, name)
	d.byKey[name] = id
	return id
}

// InternAll interns every name and returns the resulting Set.
func (d *Dict) InternAll(names ...string) Set {
	items := make([]Item, len(names))
	d.InternBatch(names, items)
	return Canonical(items)
}

// InternBatch interns names[i] into dst[i] for every i under one write
// lock. Fresh identifiers go to new names in slice order, so the ids and
// the order the dictionary grows in are those of calling Intern on each
// name in turn. A new name is copied before it is stored: names may be
// views into a larger buffer, such as a request body, without pinning it.
func (d *Dict) InternBatch(names []string, dst []Item) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, name := range names {
		id, ok := d.byKey[name]
		if !ok {
			id = Item(len(d.byID))
			name = strings.Clone(name)
			d.byID = append(d.byID, name)
			d.byKey[name] = id
		}
		dst[i] = id
	}
}

// Lookup returns the identifier for name without interning.
func (d *Dict) Lookup(name string) (Item, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[name]
	return id, ok
}

// Name returns the external name for id, or an error if id was never
// assigned.
func (d *Dict) Name(id Item) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.byID) {
		return "", fmt.Errorf("itemset: unknown item id %d (dict has %d items)", id, len(d.byID))
	}
	return d.byID[id], nil
}

// Label returns the external name for id, or "#<id>" — the rendering
// Names gives an unknown identifier — when id was never assigned or d
// is nil.
func (d *Dict) Label(id Item) string {
	if d != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
		if int(id) < len(d.byID) {
			return d.byID[id]
		}
	}
	return "#" + strconv.FormatUint(uint64(id), 10)
}

// MustName is Name for ids known to be valid; it panics otherwise.
func (d *Dict) MustName(id Item) string {
	n, err := d.Name(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Len returns the number of interned items.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// Names renders a set using the dictionary, e.g. "{bread, milk}".
// Unknown identifiers render as "#<id>". The text is appended into one
// buffer, so a rendered rule cell costs one string allocation.
func (d *Dict) Names(s Set) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var a [64]byte
	out := append(a[:0], '{')
	for i, x := range s {
		if i > 0 {
			out = append(out, ", "...)
		}
		if int(x) < len(d.byID) {
			out = append(out, d.byID[x]...)
		} else {
			out = fmt.Appendf(out, "#%d", x)
		}
	}
	return string(append(out, '}'))
}

// SortedNames returns all interned names in identifier order (useful
// for deterministic catalog dumps) or alphabetically when alpha is set.
func (d *Dict) SortedNames(alpha bool) []string {
	d.mu.RLock()
	out := make([]string, len(d.byID))
	copy(out, d.byID)
	d.mu.RUnlock()
	if alpha {
		sort.Strings(out)
	}
	return out
}
