// Incremental-cleaning benchmark: the cost of re-answering a cleaning query
// after an append, served as a cached view plus a delta pass, against the
// cold full re-clean over the same final data. No bench/ workload runs a
// DEDUP delta, so this is where its speed is pinned: a DENIAL's delta is the
// engine's masked self-join (engine.MaskedSelfJoin), a DEDUP's is the
// statement's own plan under a fresh mask — token filtering fans every row
// out into ~10 blocks through Nest, attribute blocking into one. The delta
// enumerates only pairs touching fresh tuples, so the speedup grows as the
// delta fraction shrinks.
package cleandb_test

import (
	"testing"
	"time"

	"cleandb"
	"cleandb/internal/datagen"
)

// BenchmarkIncrementalAppendQuery measures, per statement and append
// fraction, one append-then-requery cycle on a view-cached DB (the delta
// path) and the equivalent cold execution, reporting both phases and their
// ratio as the "speedup" metric.
func BenchmarkIncrementalAppendQuery(b *testing.B) {
	lineitem := datagen.GenLineitem(datagen.LineitemConfig{Rows: 2000, NoiseDiscount: true, Seed: 11})
	customer := datagen.GenCustomer(datagen.CustomerConfig{Rows: 2000, Seed: 7}).Rows
	cases := []struct {
		name, source, query string
		rows                []cleandb.Value
	}{
		// A shifted-band inequality DC: selective enough that the output stays
		// small against the candidate space, so the timing compares join work,
		// not the shared cost of materializing a large pair output.
		{"denial", "lineitem", `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount + 0.08)`, lineitem},
		{"dedup_tf", "customer", `SELECT * FROM customer c DEDUP(token_filtering, LD, 0.7, c.name)`, customer},
		{"dedup_attribute", "customer", `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`, customer},
	}
	fractions := []struct {
		name string
		of   int // the appended tail is 1/of of the rows
	}{{"10pct", 10}, {"0.5pct", 200}}
	for _, c := range cases {
		for _, f := range fractions {
			b.Run(c.name+"/"+f.name, func(b *testing.B) {
				benchAppendQuery(b, c.source, c.query, c.rows, len(c.rows)-len(c.rows)/f.of)
			})
		}
	}
}

func benchAppendQuery(b *testing.B, source, query string, rows []cleandb.Value, baseRows int) {
	base, delta := rows[:baseRows], rows[baseRows:]
	var coldNs, deltaNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := cleandb.Open(cleandb.WithViewCache(4))
		inc.RegisterRows(source, base)
		if _, err := inc.Query(query); err != nil { // warm the view over the base
			b.Fatal(err)
		}
		if err := inc.Append(source, delta); err != nil {
			b.Fatal(err)
		}
		cold := cleandb.Open()
		cold.RegisterRows(source, rows)

		b.StartTimer()
		start := time.Now()
		res, err := inc.Query(query)
		deltaNs += time.Since(start).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		if res.ViewHit() != "delta" {
			b.Fatalf("appended re-query not served as a delta view (got %q)", res.ViewHit())
		}

		start = time.Now()
		want, err := cold.Query(query)
		coldNs += time.Since(start).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows()) != len(want.Rows()) {
			b.Fatalf("delta produced %d rows, cold %d", len(res.Rows()), len(want.Rows()))
		}
	}
	if deltaNs > 0 {
		b.ReportMetric(float64(coldNs)/float64(deltaNs), "x-speedup")
		b.ReportMetric(float64(deltaNs)/float64(b.N), "delta-ns/op")
		b.ReportMetric(float64(coldNs)/float64(b.N), "cold-ns/op")
	}
}
