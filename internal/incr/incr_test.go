package incr

import (
	"fmt"
	"testing"
)

func stamps(pairs ...int64) []Stamp {
	out := make([]Stamp, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Stamp{ID: fmt.Sprintf("s%d", i/2), Base: pairs[i], Delta: pairs[i+1]})
	}
	return out
}

func TestCacheClassification(t *testing.T) {
	c := NewCache[string](4)
	c.Put("q", "v", stamps(1, 0, 2, 3))

	if e, f := c.Lookup("q", stamps(1, 0, 2, 3)); f != Exact || e.Val != "v" {
		t.Fatalf("same stamps: got freshness %v val %q", f, e.Val)
	}
	if e, f := c.Lookup("q", stamps(1, 2, 2, 3)); f != Appended || e.Val != "v" {
		t.Fatalf("newer delta: got freshness %v val %q", f, e.Val)
	}
	if _, f := c.Lookup("other", stamps(1, 0)); f != Stale {
		t.Fatalf("absent key: got freshness %v", f)
	}
	// Base generation moved: stale, and the entry must be evicted on sight.
	if _, f := c.Lookup("q", stamps(2, 0, 2, 3)); f != Stale {
		t.Fatalf("moved base: got freshness %v", f)
	}
	if _, f := c.Lookup("q", stamps(1, 0, 2, 3)); f != Stale {
		t.Fatalf("stale entry not evicted")
	}

	// An entry stamped AHEAD of the catalog (re-registered source reusing
	// stamps) is stale, as is a source-set size mismatch.
	c.Put("q2", "v2", stamps(1, 5))
	if _, f := c.Lookup("q2", stamps(1, 4)); f != Stale {
		t.Fatalf("entry newer than catalog: not stale")
	}
	c.Put("q3", "v3", stamps(1, 0))
	if _, f := c.Lookup("q3", stamps(1, 0, 1, 0)); f != Stale {
		t.Fatalf("source-set mismatch: not stale")
	}
	// Same position, different source identity.
	c.Put("q4", "v4", []Stamp{{ID: "a", Base: 1, Delta: 0}})
	if _, f := c.Lookup("q4", []Stamp{{ID: "b", Base: 1, Delta: 0}}); f != Stale {
		t.Fatalf("source identity mismatch: not stale")
	}
}

func TestCacheLRUAndPurge(t *testing.T) {
	c := NewCache[int](2)
	st := stamps(1, 0)
	c.Put("a", 1, st)
	c.Put("b", 2, st)
	if _, f := c.Lookup("a", st); f != Exact {
		t.Fatal("a missing before eviction")
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", 3, st)
	if _, f := c.Lookup("b", st); f != Stale {
		t.Fatal("b not evicted as LRU")
	}
	if _, f := c.Lookup("a", st); f != Exact {
		t.Fatal("a evicted despite recent use")
	}
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}

	c.Purge()
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("entries after purge = %d, want 0", got)
	}
	// Counters survive the purge.
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("purge reset counters: %+v", s)
	}
}

func TestCacheDisabledAndNil(t *testing.T) {
	var nilCache *Cache[string]
	nilCache.Put("k", "v", nil)
	nilCache.Purge()
	if _, f := nilCache.Lookup("k", nil); f != Stale {
		t.Fatal("nil cache lookup not a miss")
	}
	if s := nilCache.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}

	off := NewCache[string](0)
	off.Put("k", "v", stamps(1, 0))
	if _, f := off.Lookup("k", stamps(1, 0)); f != Stale {
		t.Fatal("zero-capacity cache stored an entry")
	}
}
