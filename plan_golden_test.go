package cleandb

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cleandb/internal/datagen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestPlanShapeGolden pins the three-level plan of the paper's running
// example — FD + FD + DEDUP on one attribute — and of a lone FD and a lone
// token-blocked DEDUP: the comprehensions, the algebraic plan and the
// physical strategies one execution notes. What it guards is structural: all
// three branches sit on ONE Nest, that Nest carries the group-size guard, and
// DEDUP's pair enumeration runs as the fused self-pair stage. A rewrite that
// guards only one branch splits the Nest and doubles the grouping; the golden
// file and the assertions below are the test that says so.
// Regenerate with `go test -run TestPlanShapeGolden -update .`.
func TestPlanShapeGolden(t *testing.T) {
	const guard = "having (length(g.group) > 1)"
	cases := []struct {
		name, query string
		selfPairs   bool
	}{
		{"unified", `SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`, true},
		{"fd", `SELECT * FROM customer c FD(c.address, c.nationkey)`, false},
		{"dedup-token", `SELECT * FROM customer c DEDUP(token_filtering, LD, 0.8, c.name)`, true},
	}
	db := Open(WithWorkers(4))
	db.RegisterRows("customer", datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7}).Rows)

	var sb strings.Builder
	for _, c := range cases {
		explain, err := db.Explain(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := db.Query(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ledger := res.Metrics().Strategies
		var notes []string
		nests := 0
		for k, n := range ledger {
			notes = append(notes, fmt.Sprintf("%s=%d", k, n))
			if strings.HasPrefix(k, "nest:") {
				nests += int(n)
			}
		}
		sort.Strings(notes)
		fmt.Fprintf(&sb, "== %s ==\n%s-- physical strategies --\n%s\n", c.name, explain, strings.Join(notes, " "))

		owned := 0
		for _, line := range strings.Split(explain, "\n") {
			if !strings.Contains(line, "Nest[") {
				continue
			}
			if !strings.Contains(line, guard) {
				t.Errorf("%s: a branch lost the group-size guard: %s", c.name, strings.TrimSpace(line))
			}
			if !strings.Contains(line, "^shared node") {
				owned++
			}
		}
		if owned != 1 || nests != 1 {
			t.Errorf("%s: %d Nest nodes planned, %d grouped; want one shared Nest\n%s", c.name, owned, nests, explain)
		}
		if got := ledger["pairs:self"] == 1; got != c.selfPairs {
			t.Errorf("%s: pairs:self noted = %v, want %v (ledger %v)", c.name, got, c.selfPairs, ledger)
		}
	}

	path := filepath.Join("testdata", "plan_shapes.golden")
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
