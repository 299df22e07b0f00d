package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"cleandb/internal/types"
)

// The oracle is owned by the benchmark: every expected answer below comes
// from a map or a nested loop over the generated rows (custRec / lineRec),
// never from an execution path of the program under test. Answers are held as
// a count plus an order-independent digest — the wrapping sum of one FNV-1a
// hash per violation — so a result can be checked in one pass whatever order
// the engine emits it in.

type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	d.n++
	d.sum += h.Sum64()
}

// addHash adds a violation already reduced to a 64-bit hash.
func (d *digest) addHash(h uint64) {
	d.n++
	d.sum += h
}

func (d digest) equal(o digest) bool { return d == o }

func (d digest) String() string { return fmt.Sprintf("%d/%016x", d.n, d.sum) }

// ---------------------------------------------------------------------------
// DENIAL: t1.price < t2.price and t1.disc > t2.disc + shift and t1.price < cap
// ---------------------------------------------------------------------------

// dcRule is the denial constraint family of the lineitem workloads. shift is
// 0 for rule ψ and 0.08 for the shifted band; priceCap +Inf means no
// one-sided filter.
type dcRule struct {
	shift    float64
	priceCap float64
}

func (r dcRule) violates(t1, t2 lineRec) bool {
	return t1.price < t2.price && t1.disc > t2.disc+r.shift && t1.price < r.priceCap
}

// pairHash identifies the ordered violation (a, b): FNV-1a over the four
// identity integers, without building a string — a result of tens of
// thousands of pairs is digested on every op.
func pairHash(a, b lineID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [4]int64{a.order, a.line, b.order, b.line} {
		for k := 0; k < 8; k++ {
			h ^= uint64(v>>(8*k)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// naiveDC is the O(n²) reference: every ordered pair is tested.
func naiveDC(rows []lineRec, r dcRule) digest {
	var d digest
	for _, t1 := range rows {
		if !(t1.price < r.priceCap) {
			continue
		}
		for _, t2 := range rows {
			if r.violates(t1, t2) {
				d.addHash(pairHash(t1.id(), t2.id()))
			}
		}
	}
	return d
}

// naiveDCDelta adds to d the violations that involve at least one row of
// fresh, given that d already holds those among old. It is the same nested
// loop restricted to pairs touching a fresh row.
func naiveDCDelta(d digest, old, fresh []lineRec, r dcRule) digest {
	for _, f := range fresh {
		for _, o := range old {
			if r.violates(f, o) {
				d.addHash(pairHash(f.id(), o.id()))
			}
			if r.violates(o, f) {
				d.addHash(pairHash(o.id(), f.id()))
			}
		}
		for _, g := range fresh {
			if r.violates(f, g) {
				d.addHash(pairHash(f.id(), g.id()))
			}
		}
	}
	return d
}

// fieldAt reads one named field by position, resolving the position once per
// schema: result rows share a schema, and a result of tens of thousands of
// pairs is digested on every op.
type fieldAt struct {
	name   string
	schema *types.Schema
	idx    int
}

func (f *fieldAt) of(v *types.Value) *types.Value {
	r := v.Record()
	if r == nil {
		return &types.Value{}
	}
	if r.Schema != f.schema {
		f.schema = r.Schema
		if i, ok := r.Schema.Index(f.name); ok {
			f.idx = i
		} else {
			f.idx = -1
		}
	}
	if f.idx < 0 {
		return &types.Value{}
	}
	return &r.Fields[f.idx]
}

// dcDigestOfRows digests a DENIAL result: one {a, b} record per violation.
func dcDigestOfRows(rows []types.Value) digest {
	var d digest
	left, right := fieldAt{name: "a"}, fieldAt{name: "b"}
	order, line := fieldAt{name: "orderkey"}, fieldAt{name: "linenumber"}
	for i := range rows {
		a, b := left.of(&rows[i]), right.of(&rows[i])
		d.addHash(pairHash(
			lineID{order.of(a).Int(), line.of(a).Int()},
			lineID{order.of(b).Int(), line.of(b).Int()}))
	}
	return d
}

// checkRepair validates a REPAIR outcome against the original rows: the
// healed table has the same tuples, only the repair column moved, every moved
// tuple took part in a violation, no value left the column's original range,
// and the naive check over the healed rows finds nothing.
func checkRepair(orig []lineRec, healed []types.Value, r dcRule) error {
	if len(healed) != len(orig) {
		return fmt.Errorf("repair: %d healed rows, want %d", len(healed), len(orig))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	byID := make(map[lineID]lineRec, len(orig))
	for _, o := range orig {
		byID[o.id()] = o
		lo, hi = math.Min(lo, o.disc), math.Max(hi, o.disc)
	}
	involved := map[lineID]bool{}
	for _, t1 := range orig {
		if !(t1.price < r.priceCap) {
			continue
		}
		for _, t2 := range orig {
			if r.violates(t1, t2) {
				involved[t1.id()], involved[t2.id()] = true, true
			}
		}
	}
	after := lineRecs(healed)
	for _, h := range after {
		o, ok := byID[h.id()]
		if !ok {
			return fmt.Errorf("repair: healed row %v not in the input", h.id())
		}
		if h.price != o.price {
			return fmt.Errorf("repair: row %v price moved %g → %g", h.id(), o.price, h.price)
		}
		if h.disc != o.disc {
			if !involved[h.id()] {
				return fmt.Errorf("repair: row %v changed without violating", h.id())
			}
			if h.disc < lo-1e-9 || h.disc > hi+1e-9 {
				return fmt.Errorf("repair: row %v discount %g outside [%g, %g]", h.id(), h.disc, lo, hi)
			}
		}
	}
	if left := naiveDC(after, r); left.n != 0 {
		return fmt.Errorf("repair: %d violations remain", left.n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// unified FD + FD + DEDUP over customer
// ---------------------------------------------------------------------------

// levenshtein is the textbook two-row edit distance over bytes.
func levenshtein(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// similarLD is sim(a,b) > 0.8 for sim = 1 − LD/max(len): 5·LD < max(len).
func similarLD(a, b string) bool {
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	if m == 0 {
		return true
	}
	return 5*levenshtein(a, b) < m
}

func (c custRec) simString() string { return c.address + c.name + c.phone }

func phonePrefix(p string) string {
	if len(p) > 3 {
		return p[:3]
	}
	return p
}

// unifiedOracle is the expected answer of the running example: per address
// with at least one violation, the distinct phone prefixes (FD 1), distinct
// nation keys (FD 2) and similar pairs (DEDUP), each with the group it was
// found in.
type unifiedOracle struct {
	want digest
	// truth is the generator's ground truth (dedupKey of original and
	// duplicate); truthFound is how many of those pairs the naive DEDUP finds
	// at θ = 0.8, recorded at set-up as the recall floor a run must meet.
	truth      map[string]bool
	truthFound int
}

func sortedKeys(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func groupKeys(g []custRec) string {
	ks := make([]string, len(g))
	for i, c := range g {
		ks[i] = strconv.FormatInt(c.key, 10)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func dedupKey(a, b int64) string {
	if a > b {
		a, b = b, a
	}
	return strconv.FormatInt(a, 10) + "~" + strconv.FormatInt(b, 10)
}

func newUnifiedOracle(rows []custRec, truth map[string]bool) unifiedOracle {
	groups := map[string][]custRec{}
	for _, c := range rows {
		groups[c.address] = append(groups[c.address], c)
	}
	o := unifiedOracle{truth: truth}
	for addr, g := range groups {
		prefixes, nations := map[string]bool{}, map[string]bool{}
		for _, c := range g {
			prefixes[phonePrefix(c.phone)] = true
			nations[strconv.FormatInt(c.nation, 10)] = true
		}
		var pairs []string
		for i := range g {
			for j := i + 1; j < len(g); j++ {
				if similarLD(g[i].simString(), g[j].simString()) {
					pairs = append(pairs, dedupKey(g[i].key, g[j].key))
				}
			}
		}
		for _, p := range pairs {
			if truth[p] {
				o.truthFound++
			}
		}
		fd1, fd2 := len(prefixes) > 1, len(nations) > 1
		if !fd1 && !fd2 && len(pairs) == 0 {
			continue
		}
		o.want.add(entityLine(addr, fd1, sortedKeys(prefixes), fd2, sortedKeys(nations), groupKeys(g), pairs))
	}
	return o
}

func entityLine(addr string, fd1 bool, prefixes string, fd2 bool, nations, group string, pairs []string) string {
	sort.Strings(pairs)
	var sb strings.Builder
	sb.WriteString(addr)
	if fd1 {
		sb.WriteString("|fd1:" + prefixes + "@" + group)
	}
	if fd2 {
		sb.WriteString("|fd2:" + nations + "@" + group)
	}
	if len(pairs) > 0 {
		sb.WriteString("|dedup:" + strings.Join(pairs, ","))
	}
	return sb.String()
}

// unifiedDigestOfRows digests the program's combined output — one record per
// entity: {entity, fd1: [{key, values, group}], fd2: [...], dedup1: [{a, b}]}
// — re-scoring every reported DEDUP pair against θ on the way and counting
// the reported pairs that are in the generator's ground truth.
func unifiedDigestOfRows(rows []types.Value, truth map[string]bool) (d digest, truthFound int, err error) {
	for _, r := range rows {
		addr := r.Field("entity").Str()
		fd := func(task string) (bool, string, string, error) {
			l := r.Field(task).List()
			if len(l) == 0 {
				return false, "", "", nil
			}
			if len(l) != 1 {
				return false, "", "", fmt.Errorf("entity %q: %d %s groups", addr, len(l), task)
			}
			vals := map[string]bool{}
			for _, v := range l[0].Field("values").List() {
				vals[v.String()] = true
			}
			var ks []string
			for _, m := range l[0].Field("group").List() {
				ks = append(ks, strconv.FormatInt(m.Field("custkey").Int(), 10))
			}
			sort.Strings(ks)
			return true, sortedKeys(vals), strings.Join(ks, ","), nil
		}
		fd1, prefixes, g1, err := fd("fd1")
		if err != nil {
			return d, 0, err
		}
		fd2, nations, g2, err := fd("fd2")
		if err != nil {
			return d, 0, err
		}
		group := g1
		if !fd1 {
			group = g2
		}
		if fd1 && fd2 && g1 != g2 {
			return d, 0, fmt.Errorf("entity %q: fd1 and fd2 disagree on the group", addr)
		}
		var pairs []string
		for _, p := range r.Field("dedup1").List() {
			a, b := p.Field("a"), p.Field("b")
			sa := a.Field("address").Str() + a.Field("name").Str() + a.Field("phone").Str()
			sb := b.Field("address").Str() + b.Field("name").Str() + b.Field("phone").Str()
			if !similarLD(sa, sb) {
				return d, 0, fmt.Errorf("entity %q: reported pair scores below θ", addr)
			}
			key := dedupKey(a.Field("custkey").Int(), b.Field("custkey").Int())
			if truth[key] {
				truthFound++
			}
			pairs = append(pairs, key)
		}
		d.add(entityLine(addr, fd1, prefixes, fd2, nations, group, pairs))
	}
	return d, truthFound, nil
}

// ---------------------------------------------------------------------------
// serve_mix: SELECT c.name FROM customer c WHERE c.nationkey = :n
// ---------------------------------------------------------------------------

// nameOracle holds, per nation key, the digest of the NDJSON lines the
// selection must stream.
type nameOracle [25]digest

func newNameOracle(rows []custRec) *nameOracle {
	var o nameOracle
	for _, c := range rows {
		if c.nation >= 0 && int(c.nation) < len(o) {
			o[c.nation].add(`{"name":` + strconv.Quote(c.name) + `}`)
		}
	}
	return &o
}
