package cleaning

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cleandb/internal/datagen"
	"cleandb/internal/engine"
	"cleandb/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestRepairDCGolden pins everything RepairDC reports — entries (keys,
// values, intervals, rounds, order), loop statistics, charged costs and the
// healed rows — to a file captured from the string-keyed implementation the
// tuple table replaced. A rewrite of the loop's internals must not move any
// line of it. The four rules cover the star-shaped rule ψ (clamp fit, one
// round), and a windowed rule that needs every round and still leaves pairs
// (many clusters, the MaxRounds exit) in three shapes: strict ascending,
// tie-pooling, and descending with the repair direction flipped.
func TestRepairDCGolden(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 2000, Seed: 11, NoiseDiscount: true})
	price := func(v types.Value) float64 { return v.Field("extendedprice").Float() }
	disc := func(v types.Value) float64 { return v.Field("discount").Float() }
	const priceCap, window, shift = 1000.0, 20.0, 0.05
	cases := []struct {
		name string
		cfg  DCRepairConfig
	}{
		{"psi", DCRepairConfig{
			Check: DCConfig{
				LeftFilter: func(v types.Value) bool { return price(v) < priceCap },
				Pred: func(t1, t2 types.Value) bool {
					return price(t1) < price(t2) && disc(t1) > disc(t2) && price(t1) < priceCap
				},
				BandOp: "<",
			},
			RepairOp: ">",
		}},
		{"window-lt", DCRepairConfig{
			Check: DCConfig{
				Pred: func(t1, t2 types.Value) bool {
					return price(t1) < price(t2) && price(t2) < price(t1)+window && disc(t1) > disc(t2)+shift
				},
				BandOp: "<",
			},
			RepairOp: ">",
		}},
		{"window-le", DCRepairConfig{
			Check: DCConfig{
				Pred: func(t1, t2 types.Value) bool {
					return price(t1) <= price(t2) && price(t2) < price(t1)+window && disc(t1) > disc(t2)+shift
				},
				BandOp: "<=",
			},
			RepairOp: ">",
		}},
		{"window-gt", DCRepairConfig{
			Check: DCConfig{
				Pred: func(t1, t2 types.Value) bool {
					return price(t1) > price(t2) && price(t1) < price(t2)+window && disc(t1) < disc(t2)-shift
				},
				BandOp: ">",
			},
			RepairOp: "<",
		}},
	}

	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var sb strings.Builder
	for _, c := range cases {
		cfg := c.cfg
		cfg.Check.Band, cfg.RepairAttr, cfg.RepairCol = price, disc, "discount"
		ctx := engine.NewContext(4)
		res, err := RepairDC(engine.FromValues(ctx, rows), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "== %s ==\n", c.name)
		fmt.Fprintf(&sb, "rounds=%d violations=%d changed=%d clusters=%d remaining=%d\n",
			res.Rounds, res.Violations, res.Changed, res.Clusters, res.Remaining)
		fmt.Fprintf(&sb, "comparisons=%d simticks=%d\n", ctx.Metrics().Comparisons(), ctx.Metrics().SimTicks())
		healed := res.Repaired.Collect()
		h := fnv.New64a()
		for _, r := range healed {
			h.Write([]byte(types.Key(r)))
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(&sb, "healed rows=%d fnv64a=%016x\n", len(healed), h.Sum64())
		for _, e := range res.Entries {
			fmt.Fprintf(&sb, "round=%d old=%s new=%s lo=%s hi=%s key=%s\n",
				e.Round, g(e.Old), g(e.New), g(e.Lo), g(e.Hi), e.Key)
		}
	}

	path := filepath.Join("testdata", "repairdc_lineitem.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
