// Package incr is the incremental-cleaning view cache: an epoch-stamped LRU
// of materialized results. It lets a re-executed query over append-only
// sources run work proportional to the delta instead of the dataset — the
// cached view answers for the unchanged base, and the core layer enumerates
// only the pairs touching appended tuples (a DEDUP by executing its plan
// under a fresh mask, a DENIAL through the engine's masked self-join).
//
// The cache is deliberately dumb about what it stores (a type parameter):
// the core layer caches *core.Result, the public DB wraps that, and tests
// cache strings. What the cache understands is freshness: every entry is
// stamped with the per-source (base generation, delta epoch) pair it was
// computed against, and a lookup classifies the entry as an exact hit (same
// stamps), a delta candidate (same bases, some newer delta epochs — the
// caller may run a delta pass and merge), or stale (a base changed: any
// reload that replaced partitions invalidates everything derived from them).
package incr

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stamp freshness-stamps one source as an execution saw it.
type Stamp struct {
	// ID identifies the source entry (name plus registration identity, so a
	// re-registered source never matches its predecessor's stamps).
	ID string
	// Base is the source's base generation: bumped whenever the base
	// partitions are replaced (reload, re-register, widening re-scan).
	Base int64
	// Delta is the source's delta epoch: bumped on every append. Base rows
	// are unchanged across delta bumps — that is what makes a delta pass
	// sound.
	Delta int64
}

// Freshness classifies a cache entry against the stamps of the sources as
// they are now.
type Freshness int

const (
	// Stale: the entry's sources changed in a way a delta pass cannot
	// bridge (different source set, or a base generation moved).
	Stale Freshness = iota
	// Exact: every stamp matches — the cached value answers as-is.
	Exact
	// Appended: bases match but at least one source has a newer delta
	// epoch — the cached value plus a delta pass over the appended rows
	// reproduces the current answer.
	Appended
)

// Entry is a cached value with the stamps it was computed under.
type Entry[R any] struct {
	Val    R
	Stamps []Stamp
}

// Cache is a bounded LRU of materialized results keyed by a caller-chosen
// string (normalized query + config + parameters). Lookups classify entries
// by stamp freshness; stale entries are evicted on sight.
type Cache[R any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	index map[string]*list.Element

	hits, misses, deltaHits atomic.Int64
}

type cacheItem[R any] struct {
	key   string
	entry Entry[R]
}

// NewCache returns a view cache holding at most capacity entries; a
// non-positive capacity disables caching (every lookup misses, puts are
// dropped).
func NewCache[R any](capacity int) *Cache[R] {
	return &Cache[R]{cap: capacity, ll: list.New(), index: map[string]*list.Element{}}
}

// classify compares an entry's stamps with the current ones.
func classify(have, now []Stamp) Freshness {
	if len(have) != len(now) {
		return Stale
	}
	fresh := Exact
	for i, h := range have {
		n := now[i]
		if h.ID != n.ID || h.Base != n.Base || h.Delta > n.Delta {
			return Stale
		}
		if h.Delta < n.Delta {
			fresh = Appended
		}
	}
	return fresh
}

// Lookup finds the entry under key and classifies it against now (stamps in
// the same caller-canonical order Put used). A Stale entry is removed and
// reported as a miss. Exact lookups count as hits, Appended as delta hits —
// the caller is expected to merge a delta pass and Put the refreshed entry
// back.
func (c *Cache[R]) Lookup(key string, now []Stamp) (Entry[R], Freshness) {
	var zero Entry[R]
	if c == nil || c.cap <= 0 {
		return zero, Stale
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		return zero, Stale
	}
	it := el.Value.(*cacheItem[R])
	switch classify(it.entry.Stamps, now) {
	case Exact:
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return it.entry, Exact
	case Appended:
		c.ll.MoveToFront(el)
		c.deltaHits.Add(1)
		return it.entry, Appended
	default:
		c.ll.Remove(el)
		delete(c.index, key)
		c.misses.Add(1)
		return zero, Stale
	}
}

// Put stores (or replaces) the entry under key, evicting the least recently
// used entry beyond capacity.
func (c *Cache[R]) Put(key string, val R, stamps []Stamp) {
	if c == nil || c.cap <= 0 {
		return
	}
	cp := append([]Stamp(nil), stamps...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		el.Value.(*cacheItem[R]).entry = Entry[R]{Val: val, Stamps: cp}
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&cacheItem[R]{key: key, entry: Entry[R]{Val: val, Stamps: cp}})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.index, last.Value.(*cacheItem[R]).key)
	}
}

// Purge drops every entry (catalog-shape changes: register, remove).
// Counters survive a purge.
func (c *Cache[R]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.index = map[string]*list.Element{}
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts exact-stamp lookups answered from the cache; DeltaHits
	// counts lookups answered by a cached base plus a delta pass; Misses
	// counts everything else (absent or stale).
	Hits, Misses, DeltaHits int64
	// Entries is the current resident entry count.
	Entries int
}

// Stats returns the cache counters.
func (c *Cache[R]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	n := 0
	if c.ll != nil {
		n = c.ll.Len()
	}
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		DeltaHits: c.deltaHits.Load(),
		Entries:   n,
	}
}
