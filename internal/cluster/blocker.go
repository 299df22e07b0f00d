// Package cluster implements the clustering and filtering building blocks
// that CleanM uses to prune pairwise comparisons in similarity joins
// (paper §4.2–§4.3): token filtering, the single-pass k-means variant
// inspired by ClusterJoin, multi-pass k-means, canopy clustering, length
// filtering and hierarchical agglomerative clustering.
//
// Each technique is exposed in two equivalent forms:
//
//   - a Blocker, the engine-facing form: a function from a string to the set
//     of group keys it belongs to (words sharing a key are compared);
//   - a monoid (GroupsMonoid), the calculus-facing form used by the monoid
//     layer: unit maps a value to {(key, {value}), ...} and merge unions
//     groups by key. The package's property tests verify the monoid laws,
//     which is what makes the operations first-class citizens of CleanM
//     rather than black-box UDFs.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"cleandb/internal/textsim"
	"cleandb/internal/types"
)

// Blocker assigns a value to one or more groups; similarity checks are then
// confined within groups. Implementations must be deterministic and
// stateless per call so that blocking distributes across workers.
type Blocker interface {
	// Name identifies the technique ("tf", "kmeans", ...).
	Name() string
	// Keys returns the group keys of s (at least one).
	Keys(s string) []string
}

// KeyCoster is implemented by blocking techniques whose key assignment does
// measurable work per term (distance computations); the cost model charges
// it to the grouping phase.
type KeyCoster interface {
	// KeyCost returns the work units of computing Keys(s).
	KeyCost(s string) int64
}

// TokenFilter blocks strings by their q-grams: two strings share a group iff
// they share a token. Preferred for short strings (paper §4.3: DBLP author
// names average 12.8 characters).
type TokenFilter struct {
	// Q is the token length (paper evaluates q = 2, 3, 4).
	Q int
}

// Name implements Blocker.
func (t TokenFilter) Name() string { return fmt.Sprintf("tf(q=%d)", t.Q) }

// Keys implements Blocker: the distinct q-grams of s.
func (t TokenFilter) Keys(s string) []string { return textsim.UniqueQGrams(s, t.Q) }

// Exact groups values by their exact content — the degenerate blocking used
// when a CleanM DEDUP clause groups on an attribute directly (e.g. "same
// address"), which is what lets the algebraic rewriter coalesce the dedup
// grouping with FD groupings on the same attribute.
type Exact struct{}

// Name implements Blocker.
func (Exact) Name() string { return "attribute" }

// Keys implements Blocker: the value itself.
func (Exact) Keys(s string) []string { return []string{s} }

// LengthFilter groups strings by length bucket; strings whose lengths differ
// by more than Width cannot exceed most similarity thresholds.
type LengthFilter struct {
	// Width is the bucket width in bytes (≥1).
	Width int
}

// Name implements Blocker.
func (l LengthFilter) Name() string { return fmt.Sprintf("len(w=%d)", l.Width) }

// Keys implements Blocker: the string's own bucket plus both neighbours, so
// strings in adjacent buckets still meet in one group.
func (l LengthFilter) Keys(s string) []string {
	w := l.Width
	if w < 1 {
		w = 1
	}
	b := len(s) / w
	keys := []string{lenKey(b)}
	if b > 0 {
		keys = append(keys, lenKey(b-1))
	}
	return keys
}

func lenKey(b int) string { return fmt.Sprintf("L%d", b) }

// KMeans is the paper's single-pass k-means variant (§4.3, after
// ClusterJoin): k centers are extracted up front, then each word is assigned
// in one pass to the center(s) with minimal distance — optionally within
// Delta of the minimum, to favour multiple assignment and protect recall.
type KMeans struct {
	// Centers are the cluster representatives (extracted via the
	// function-composition monoid; see SelectCentersFixedStep).
	Centers []string
	// Delta widens assignment: a word joins every center whose distance is
	// within Delta of the minimum. 0 assigns to the single closest center.
	Delta float64
	// Metric measures distance as 1 - similarity (default Levenshtein).
	Metric textsim.Metric
}

// Name implements Blocker.
func (k KMeans) Name() string { return fmt.Sprintf("kmeans(k=%d)", len(k.Centers)) }

// Keys implements Blocker: the nearest center index (plus any within Delta).
func (k KMeans) Keys(s string) []string {
	if len(k.Centers) == 0 {
		return []string{"c0"}
	}
	dists := make([]float64, len(k.Centers))
	best := 0
	for i, c := range k.Centers {
		dists[i] = 1 - k.Metric.Sim(s, c)
		if dists[i] < dists[best] {
			best = i
		}
	}
	keys := []string{centerKey(best)}
	if k.Delta > 0 {
		for i, d := range dists {
			if i != best && d <= dists[best]+k.Delta {
				keys = append(keys, centerKey(i))
			}
		}
	}
	return keys
}

func centerKey(i int) string { return fmt.Sprintf("c%d", i) }

// KeyCost implements KeyCoster: one distance per center.
func (k KMeans) KeyCost(string) int64 { return int64(len(k.Centers)) }

// SelectCentersFixedStep extracts k centers by taking the N/k, 2N/k, ..., N-th
// elements of values — the parameterization of the function-composition
// monoid shown in §4.3 of the paper. The extraction is associative (it
// appends specific positions to a bag), hence a monoid operation; this
// implementation folds the equivalent state transformer.
func SelectCentersFixedStep(values []string, k int) []string {
	n := len(values)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	step := n / k
	if step < 1 {
		step = 1
	}
	centers := make([]string, 0, k)
	for i := step - 1; i < n && len(centers) < k; i += step {
		centers = append(centers, values[i])
	}
	return centers
}

// SelectCentersReservoir extracts k centers with reservoir sampling (Vitter),
// the randomized alternative the paper mentions; seed makes it deterministic.
func SelectCentersReservoir(values []string, k int, seed uint64) []string {
	if k <= 0 {
		return nil
	}
	if len(values) <= k {
		out := make([]string, len(values))
		copy(out, values)
		return out
	}
	res := make([]string, k)
	copy(res, values[:k])
	state := seed | 1
	for i := k; i < len(values); i++ {
		// xorshift64 PRNG; stdlib-only and deterministic.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := state % uint64(i+1)
		if j < uint64(k) {
			res[j] = values[i]
		}
	}
	return res
}

// FitKMeans runs the classic multi-pass k-means over strings (paper §4.3,
// "multi-pass partitional algorithms"): each iteration assigns words to the
// closest center and elects each cluster's medoid as the next center. The
// iteration chain corresponds to n equivalent monoid comprehensions whose
// state (the centers) flows from one to the next.
func FitKMeans(values []string, k, iterations int, metric textsim.Metric) []string {
	centers := SelectCentersFixedStep(values, k)
	if len(centers) == 0 {
		return nil
	}
	for it := 0; it < iterations; it++ {
		clusters := make([][]string, len(centers))
		for _, v := range values {
			best, bestD := 0, 2.0
			for i, c := range centers {
				d := 1 - metric.Sim(v, c)
				if d < bestD {
					best, bestD = i, d
				}
			}
			clusters[best] = append(clusters[best], v)
		}
		changed := false
		for i, cl := range clusters {
			if len(cl) == 0 {
				continue
			}
			m := medoid(cl, metric)
			if m != centers[i] {
				centers[i] = m
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return centers
}

// medoid returns the member of cl minimizing total distance to the others;
// for large clusters it samples to keep fitting cheap.
func medoid(cl []string, metric textsim.Metric) string {
	cand := cl
	if len(cand) > 24 {
		step := len(cand) / 24
		s := make([]string, 0, 24)
		for i := 0; i < len(cand); i += step {
			s = append(s, cand[i])
		}
		cand = s
	}
	best, bestSum := cand[0], -1.0
	for _, c := range cand {
		sum := 0.0
		for _, o := range cand {
			sum += 1 - metric.Sim(c, o)
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = c, sum
		}
	}
	return best
}

// Canopy clusters with the canopy technique (McCallum et al.): cheap-metric
// canopies with a loose threshold T1 group candidates; a value may belong to
// several canopies. Use Fit to derive canopy centers, then the Blocker
// interface to assign.
type Canopy struct {
	// T1 is the loose similarity threshold for joining a canopy.
	T1 float64
	// T2 (> T1 in similarity terms) removes a value from the pool when it is
	// tightly covered by a canopy center.
	T2      float64
	Metric  textsim.Metric
	centers []string
}

// Name implements Blocker.
func (c *Canopy) Name() string { return fmt.Sprintf("canopy(%d)", len(c.centers)) }

// Fit selects canopy centers from values. It is deterministic: values are
// taken in order.
func (c *Canopy) Fit(values []string) {
	pool := make([]string, len(values))
	copy(pool, values)
	c.centers = c.centers[:0]
	for len(pool) > 0 {
		center := pool[0]
		c.centers = append(c.centers, center)
		next := pool[:0]
		for _, v := range pool[1:] {
			if c.Metric.Sim(center, v) >= c.T2 {
				continue // tightly covered: drop from pool
			}
			next = append(next, v)
		}
		pool = next
	}
}

// KeyCost implements KeyCoster: one distance per canopy center.
func (c *Canopy) KeyCost(string) int64 { return int64(len(c.centers)) }

// Keys implements Blocker: every canopy whose center is at least T1-similar;
// falls back to the nearest canopy when none qualifies.
func (c *Canopy) Keys(s string) []string {
	var keys []string
	best, bestSim := 0, -1.0
	for i, ctr := range c.centers {
		sim := c.Metric.Sim(s, ctr)
		if sim >= c.T1 {
			keys = append(keys, centerKey(i))
		}
		if sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if len(keys) == 0 && len(c.centers) > 0 {
		keys = append(keys, centerKey(best))
	}
	return keys
}

// HierarchicalClusters performs agglomerative clustering (paper §4.3,
// "hierarchical clustering"): starting from singletons, the pair of clusters
// at minimum distance (single linkage) merges until k clusters remain. Each
// merge step is the Min monoid over pairwise distances.
func HierarchicalClusters(values []string, k int, metric textsim.Metric) [][]string {
	if k < 1 {
		k = 1
	}
	clusters := make([][]string, 0, len(values))
	for _, v := range values {
		clusters = append(clusters, []string{v})
	}
	for len(clusters) > k {
		bi, bj, bestD := -1, -1, 2.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				d := singleLinkage(clusters[i], clusters[j], metric)
				if d < bestD {
					bi, bj, bestD = i, j, d
				}
			}
		}
		if bi < 0 {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	for _, cl := range clusters {
		sort.Strings(cl)
	}
	return clusters
}

func singleLinkage(a, b []string, metric textsim.Metric) float64 {
	best := 2.0
	for _, x := range a {
		for _, y := range b {
			d := 1 - metric.Sim(x, y)
			if d < best {
				best = d
			}
		}
	}
	return best
}

// ParseBlocker builds a Blocker from a CleanM operator name ("token_filtering",
// "kmeans", "length") with the dictionary/terms available for center fitting.
func ParseBlocker(op string, param int, fitValues []string) (Blocker, error) {
	switch strings.ToLower(strings.TrimSpace(op)) {
	case "token_filtering", "tf", "token filtering":
		q := param
		if q <= 0 {
			q = 3
		}
		return TokenFilter{Q: q}, nil
	case "kmeans", "k-means":
		k := param
		if k <= 0 {
			k = 10
		}
		return KMeans{Centers: SelectCentersFixedStep(fitValues, k), Metric: textsim.MetricLevenshtein}, nil
	case "length", "len":
		w := param
		if w <= 0 {
			w = 2
		}
		return LengthFilter{Width: w}, nil
	case "attribute", "exact":
		return Exact{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown blocking operator %q", op)
	}
}

// Fitted reports whether the named operator's blocker is fitted from data:
// its keys then depend on the fit values handed to ParseBlocker, not on the
// blocked string alone. Only k-means is.
func Fitted(op string) bool {
	b, _ := ParseBlocker(op, 0, nil)
	_, fitted := b.(KMeans)
	return fitted
}

// Groups materializes the blocker's grouping of values: key → members.
// Deterministic output (keys sorted, members in input order).
func Groups(b Blocker, values []string) map[string][]string {
	out := make(map[string][]string)
	for _, v := range values {
		for _, k := range b.Keys(v) {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// GroupsValue renders a grouping as a canonical types.Value: a list of
// {key, items} records sorted by key with items sorted — the normal form
// used by the GroupsMonoid so that merge order cannot be observed.
func GroupsValue(groups map[string][]string) types.Value {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]types.Value, 0, len(keys))
	for _, k := range keys {
		items := append([]string(nil), groups[k]...)
		sort.Strings(items)
		iv := make([]types.Value, 0, len(items))
		var prev string
		for i, it := range items {
			if i > 0 && it == prev {
				continue // set semantics within a group
			}
			prev = it
			iv = append(iv, types.String(it))
		}
		recs = append(recs, types.NewRecord(groupEntrySchema, []types.Value{types.String(k), types.ListOf(iv)}))
	}
	return types.ListOf(recs)
}

var groupEntrySchema = types.NewSchema("key", "items")
