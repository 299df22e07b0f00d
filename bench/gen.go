package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cleandb/internal/data"
	"cleandb/internal/datagen"
	"cleandb/internal/types"
)

// Statements of the five workloads. They are the paper's own: the running
// example of Figure 5, rule ψ of Figure 6 / Table 5 with the repair of Table
// R1, a parameterized selection for the service path, and the shifted-band DC
// of BenchmarkIncrementalAppendQuery.
const (
	unifiedQuery = `SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`

	denialRepairParam = `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < :cap)
REPAIR(t1.discount)`

	serveQuery = `SELECT c.name FROM customer c WHERE c.nationkey = :n`

	shiftedBandQuery = `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount + 0.08)`
)

// denialRepairLiteral is the denial_repair_warm statement with the cap as a
// literal, as an ad-hoc client would send it.
func denialRepairLiteral(limit float64) string {
	return fmt.Sprintf(`SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < %g)
REPAIR(t1.discount)`, limit)
}

// priceCaps are the eight :cap values an op cycles through: the share of
// lineitem rows on the left of the self join runs from about 0.6% to 1.3%,
// close enough together that the ops of a cycle cost about the same and the
// median op does not hinge on which cap it falls on.
var priceCaps = [8]float64{960, 970, 980, 990, 1000, 1010, 1020, 1030}

// sizes are the input sizes, calibrated once so that an op takes roughly
// 50–100 ms at HEAD on two cores (serve_mix excepted) and then frozen; the
// result header records them. scale shrinks them for the smoke test.
type sizes struct {
	UnifiedCustomers int `json:"unified_cold.customers"`
	DenialLineitems  int `json:"denial_repair_warm.lineitems"`
	ServeCustomers   int `json:"serve_mix.customers"`
	ServeCycle       int `json:"serve_mix.requests_per_cycle"`
	AppendBase       int `json:"append_reclean.base_lineitems"`
	AppendBatch      int `json:"append_reclean.batch_rows"`
	AppendCycle      int `json:"append_reclean.appends_per_cycle"`
	ClusterLineitems int `json:"cluster_theta.lineitems"`
}

func frozenSizes(scale float64) sizes {
	n := func(full, floor int) int {
		v := int(float64(full) * scale)
		if v < floor {
			v = floor
		}
		return v
	}
	s := sizes{
		UnifiedCustomers: n(4000, 60),
		DenialLineitems:  n(1250, 120),
		ServeCustomers:   n(2000, 200),
		ServeCycle:       n(12000, 2*len(servePattern)) / len(servePattern) * len(servePattern),
		AppendBase:       n(2000, 200),
		AppendCycle:      60,
		ClusterLineitems: n(700, 100),
	}
	s.AppendBatch = s.AppendBase / 200 // a 0.5% batch
	if s.AppendBatch < 2 {
		s.AppendBatch = 2
	}
	if scale < 1 {
		s.AppendCycle = 3
	}
	return s
}

// custRec and lineRec are the generated rows as plain Go values: the oracle
// works on these, never on anything the program under test parsed.
type custRec struct {
	key     int64
	name    string
	address string
	nation  int64
	phone   string
}

type lineRec struct {
	order, line int64
	price, disc float64
}

// lineID is a lineitem's identity: (orderkey, linenumber) is unique because
// the generator perturbs only the discount.
type lineID struct{ order, line int64 }

func (l lineRec) id() lineID { return lineID{l.order, l.line} }

// genCustomers returns the rows, the same rows as plain records, and the
// generator's ground truth: the (original, duplicate) pairs by dedupKey.
func genCustomers(n int, seed int64) ([]types.Value, []custRec, map[string]bool) {
	// MaxDups 4 keeps the Zipf tail of duplicate-group sizes short: DEDUP's
	// pair count is quadratic in the group size, so at 10 a few large groups
	// set the op's cost and it moves 5% from seed to seed; at 4, about 1%.
	d := datagen.GenCustomer(datagen.CustomerConfig{Rows: n, DupRate: 0.1, MaxDups: 4, Seed: seed})
	recs := make([]custRec, len(d.Rows))
	for i, r := range d.Rows {
		recs[i] = custRec{
			key: r.Field("custkey").Int(), name: r.Field("name").Str(),
			address: r.Field("address").Str(), nation: r.Field("nationkey").Int(),
			phone: r.Field("phone").Str(),
		}
	}
	truth := make(map[string]bool, len(d.DupPairs))
	for _, p := range d.DupPairs {
		truth[dedupKey(p[0], p[1])] = true
	}
	return d.Rows, recs, truth
}

func genLineitems(n int, seed int64) ([]types.Value, []lineRec) {
	// Rule ψ is violated by clean rows too, so the noise only decides which
	// rows differ between seeds. At 2% the work an op does moves by about a
	// percent from seed to seed; at the generator's default 10% the handful of
	// rows left of the self join flips it by ten.
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: n, NoiseDiscount: true, NoiseRate: 0.02, Seed: seed})
	return rows, lineRecs(rows)
}

func lineRecs(rows []types.Value) []lineRec {
	recs := make([]lineRec, len(rows))
	for i, r := range rows {
		recs[i] = lineRec{
			order: r.Field("orderkey").Int(), line: r.Field("linenumber").Int(),
			price: r.Field("extendedprice").Float(), disc: r.Field("discount").Float(),
		}
	}
	return recs
}

// csvBytes renders rows as the CSV the program will be handed.
func csvBytes(rows []types.Value) ([]byte, error) {
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func colbinBytes(rows []types.Value) ([]byte, error) {
	var buf bytes.Buffer
	if err := data.WriteColbin(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// csvPayload renders rows as a header-less CSV batch for AppendCSV.
func csvPayload(rows []types.Value) ([]byte, error) {
	buf, err := csvBytes(rows)
	if err != nil {
		return nil, err
	}
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return buf[i+1:], nil
	}
	return nil, fmt.Errorf("csv payload: no header line")
}

func writeFile(dir, name string, buf []byte) (string, error) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
