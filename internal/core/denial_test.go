package core

import (
	"context"
	"testing"

	"cleandb/internal/datagen"
	"cleandb/internal/engine"
	"cleandb/internal/lang"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// denialSpecOf prepares q over rows and returns the prepared statement with
// its single DENIAL task's analyzed structure.
func denialSpecOf(t *testing.T, q string, rows []types.Value) (*Prepared, *lang.DenialSpec) {
	t.Helper()
	ctx := engine.NewContext(4)
	p := NewPipeline(ctx, map[string]*engine.Dataset{"lineitem": engine.FromValues(ctx, rows)})
	pr, err := p.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.tasks) != 1 || pr.tasks[0].Denial == nil {
		t.Fatalf("not a single DENIAL task: %q", q)
	}
	return pr, pr.tasks[0].Denial
}

// deltaServed executes q over rows[:base], then serves it over all of rows as
// a delta against that result.
func deltaServed(t *testing.T, q string, rows []types.Value, base int) *Result {
	t.Helper()
	before, _ := denialSpecOf(t, q, rows[:base])
	prior, err := before.Execute()
	if err != nil {
		t.Fatal(err)
	}
	after, _ := denialSpecOf(t, q, rows)
	res, err := after.ExecuteDeltaContext(context.Background(), nil, DeltaBase{Res: prior, BaseRows: base})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOneBandRule: however the conjuncts are ordered or mirrored, the delta
// pass and the REPAIR fixpoint prune on the same band — the first
// same-attribute cross inequality that is not the REPAIR column — because both
// get their check configuration from compileDenial.
func TestOneBandRule(t *testing.T) {
	const from = "SELECT * FROM lineitem t1\nDENIAL(t2, "
	probe := types.NewRecord(types.NewSchema("extendedprice", "discount"),
		[]types.Value{types.Float(905.5), types.Float(0.25)})
	cases := []struct {
		name, pred, repair string
		band               string // "" = no band: the delta pass scans unpruned
		op                 string
	}{
		{name: "band first", pred: "t1.extendedprice < t2.extendedprice and t1.discount > t2.discount",
			repair: "t1.discount", band: "extendedprice", op: "<"},
		{name: "repair column first", pred: "t1.discount > t2.discount and t1.extendedprice < t2.extendedprice",
			repair: "t1.discount", band: "extendedprice", op: "<"},
		{name: "mirrored spellings", pred: "t2.discount < t1.discount and t2.extendedprice > t1.extendedprice",
			repair: "t1.discount", band: "extendedprice", op: "<"},
		{name: "detect-only takes the first", pred: "t1.discount > t2.discount and t1.extendedprice < t2.extendedprice",
			band: "discount", op: ">"},
		{name: "shifted side is no band", pred: "t1.discount > t2.discount + 0.08 and t2.extendedprice >= t1.extendedprice",
			band: "extendedprice", op: "<="},
		{name: "no same-attribute inequality", pred: "t1.discount > t2.discount + 0.08 and t1.extendedprice < t2.quantity"},
	}
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 120, Seed: 5})
	for _, tc := range cases {
		q := from + tc.pred + ")"
		if tc.repair != "" {
			q += "\nREPAIR(" + tc.repair + ")"
		}
		_, spec := denialSpecOf(t, q, rows)
		check, err := compileDenial(spec, physical.ThetaMBucket, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.band == "" {
			if check.Band != nil || check.BandOp != "" {
				t.Errorf("%s: got a band (op %q), want none", tc.name, check.BandOp)
			}
		} else if check.Band == nil || check.BandOp != tc.op || check.Band(probe) != probe.Field(tc.band).Float() {
			t.Errorf("%s: band op %q, want %s %s", tc.name, check.BandOp, tc.band, tc.op)
		}
		if tc.repair != "" {
			rcfg, err := buildRepairConfig(spec, physical.ThetaMBucket, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if rcfg.Check.BandOp != check.BandOp || rcfg.Check.Band(probe) != check.Band(probe) {
				t.Errorf("%s: REPAIR config orders on op %q, the delta pass on %q", tc.name, rcfg.Check.BandOp, check.BandOp)
			}
			if rcfg.RepairCol != "discount" || rcfg.RepairOp != ">" {
				t.Errorf("%s: repair column %s %s, want discount >", tc.name, rcfg.RepairCol, rcfg.RepairOp)
			}
		}

		// The ledger names the pass the band choice selected.
		if tc.repair == "" {
			want := "join:delta-band"
			if tc.band == "" {
				want = "join:delta-scan"
			}
			if got := deltaServed(t, q, rows, 100).Stats.Strategies; got[want] != 1 {
				t.Errorf("%s: strategies %v, want one %s", tc.name, got, want)
			}
		}
	}
}

// TestDeltaBandIgnoresConjunctOrder: a delta-served REPAIR statement does the
// same work whichever inequality is written first. Before the band rule was
// shared, the delta pass pruned the repair-column-first spelling on the repair
// column while its own fixpoint ordered on the other one.
func TestDeltaBandIgnoresConjunctOrder(t *testing.T) {
	const bandFirst = `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 9000)
REPAIR(t1.discount)`
	const repairFirst = `SELECT * FROM lineitem t1
DENIAL(t2, t1.discount > t2.discount and t1.extendedprice < t2.extendedprice and t1.extendedprice < 9000)
REPAIR(t1.discount)`
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 210, Seed: 5})
	a := deltaServed(t, bandFirst, rows, 200)
	b := deltaServed(t, repairFirst, rows, 200)
	if a.Stats.Comparisons == 0 || a.Stats.Comparisons != b.Stats.Comparisons {
		t.Fatalf("delta comparisons: band-first %d, repair-column-first %d", a.Stats.Comparisons, b.Stats.Comparisons)
	}
	if len(a.Rows()) == 0 || len(a.Rows()) != len(b.Rows()) {
		t.Fatalf("delta rows: band-first %d, repair-column-first %d", len(a.Rows()), len(b.Rows()))
	}
}
