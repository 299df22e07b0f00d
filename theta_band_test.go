package cleandb

// Band-join regression table: whichever strategy runs a theta join, it keeps
// exactly the pairs the predicate accepts — the band conjunct it sorts and
// prunes on only decides how many candidates it tests. The table crosses
// every strategy with the band shapes a pruning rule can misread: an
// asymmetric band (another attribute, or a shifted operand, on one side) and
// band values the numeric order cannot place (null, NaN, strings).

import (
	"fmt"
	"math"
	"testing"

	"cleandb/internal/physical"
)

var bandSchema = NewSchema("id", "p", "q", "d")

// nullTail is a relation whose arrival order puts a null band value, a zero
// and a run of negatives at the end: 200 rows p = i%50+1, then p = null,
// p = 0 and 40 rows p = −3−i. Blocks cut in arrival order have narrow band
// ranges there, so a null read as 0 is pruned against partners the
// predicate pairs it with.
func nullTail() []Value {
	var out []Value
	add := func(p Value, d int) {
		i := len(out)
		out = append(out, NewRecord(bandSchema, []Value{Int(int64(i)), p, Int(int64((29*i)%97 - 48)), Int(int64(d))}))
	}
	for i := 0; i < 200; i++ {
		add(Int(int64(i%50+1)), (7*i)%13)
	}
	add(Null(), 1)
	add(Int(0), 0)
	for i := 0; i < 40; i++ {
		add(Int(int64(-3-i)), -1)
	}
	return out
}

// bandSources returns the table's relations: numeric p, q, d with
// duplicates, negative and positive (a null read as 0 would sit mid-order),
// three variants whose p (and, for null, q) is unordered on some or all
// rows, and nullTail.
func bandSources(n int) map[string][]Value {
	row := func(i int, p, q Value) Value {
		return NewRecord(bandSchema, []Value{Int(int64(i)), p, q, Int(int64((7 * i) % 13))})
	}
	out := map[string][]Value{"tail": nullTail()}
	for i := 0; i < n; i++ {
		p, q := Int(int64((17*i)%101-50)), Int(int64((29*i)%97-48))
		out["numeric"] = append(out["numeric"], row(i, p, q))
		np, nq := p, q
		if i%5 == 0 {
			np = Null()
		}
		if i%7 == 0 {
			nq = Null()
		}
		out["null"] = append(out["null"], row(i, np, nq))
		fp := Float(float64((17*i)%101-50) + 0.5)
		if i%5 == 0 {
			fp = Float(math.NaN())
		}
		out["nan"] = append(out["nan"], row(i, fp, q))
		out["string"] = append(out["string"], row(i, String(fmt.Sprintf("n%03d", (37*i)%101)), q))
	}
	return out
}

// TestThetaStrategiesMatchCartesian: over every source and band shape,
// M-Bucket, min/max and the automatic choice return the cartesian filter's
// rows, row for row (a single DENIAL reports its pairs in canonical order).
func TestThetaStrategiesMatchCartesian(t *testing.T) {
	bands := []string{"t1.p < t2.p", "t1.p < t2.q", "t1.p < t2.p + 10", "t1.p + 10 < t2.p", "t1.p > t2.p"}
	strategies := []struct {
		name string
		opts []Option
	}{
		{"mbucket", []Option{WithThetaStrategy(physical.ThetaMBucket)}},
		{"minmax", []Option{WithThetaStrategy(physical.ThetaMinMax)}},
		{"auto", nil},
	}
	open := func(rows []Value, opts ...Option) *DB {
		db := Open(append([]Option{WithWorkers(3)}, opts...)...)
		db.RegisterRows("s", rows)
		return db
	}
	for name, rows := range bandSources(200) {
		cartesian := open(rows, WithThetaStrategy(physical.ThetaCartesian))
		violations := 0
		for _, band := range bands {
			q := "SELECT * FROM s t1 DENIAL(t2, " + band + " and t1.d > t2.d)"
			want, err := cartesian.Query(q)
			if err != nil {
				t.Fatalf("%s/%s: cartesian: %v", name, band, err)
			}
			violations += len(want.Rows())
			for _, st := range strategies {
				label := fmt.Sprintf("%s/%s/%s", name, band, st.name)
				got, err := open(rows, st.opts...).Query(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gr, wr := canonRows(got.Rows()), canonRows(want.Rows())
				if len(gr) != len(wr) {
					t.Fatalf("%s: %d rows, cartesian %d", label, len(gr), len(wr))
				}
				for i := range gr {
					if gr[i] != wr[i] {
						t.Fatalf("%s: row %d is %s, cartesian's %s", label, i, gr[i], wr[i])
					}
				}
			}
		}
		if violations == 0 {
			t.Fatalf("%s: no violations to compare", name)
		}
	}
}
