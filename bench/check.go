package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runCheck is the regression gate: B against A, metric by metric, with the
// bounds BENCHMARK.json fixed. It fails when an end-to-end median of B is
// worse than A's by more than the metric's bound, when an op failed in either
// file, or — for two files of one seed and one set of sizes — when a count
// that must repeat exactly differs. A metric inside its bound is reported
// unchanged only if both files' own spread is inside the bound too;
// otherwise it is unresolved.
func runCheck(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-check wants two result files: A.json B.json")
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-20s %-18s %14s %14s %9s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, name := range workloadNames {
		sa, sb := a.Summary[name], b.Summary[name]
		if sa == nil || sb == nil {
			fmt.Printf("%-20s missing from one file\n", name)
			bad++
			continue
		}
		for _, rf := range []*resultFile{a, b} {
			if f := rf.Fails[name]; f["failed"] > 0 || f["attempted"] == 0 {
				fmt.Printf("%-20s %-18s %d of %d ops failed\n", name, "fail_ratio", f["failed"], f["attempted"])
				bad++
			}
		}
		for _, bm := range bj.EndToEnd {
			x, okA := sa[bm.Name]
			y, okB := sb[bm.Name]
			if !okA || !okB || x.Median == 0 {
				fmt.Printf("%-20s %-18s missing\n", name, bm.Name)
				bad++
				continue
			}
			worse := (y.Median - x.Median) / x.Median
			if bm.Better == "higher" {
				worse = -worse
			}
			spread := x.spread()
			if s := y.spread(); s > spread {
				spread = s
			}
			verdict := "unchanged"
			switch {
			case worse > bm.Bound:
				verdict = "REGRESSION"
				bad++
			case spread > bm.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case worse < -bm.Bound:
				verdict = "better"
			}
			fmt.Printf("%-20s %-18s %14.4f %14.4f %+8.1f%% %7.0f%%  %s\n",
				name, bm.Name, x.Median, y.Median, 100*(y.Median-x.Median)/x.Median, 100*bm.Bound, verdict)
		}
		if a.Header.Seed != b.Header.Seed || a.Header.Sizes != b.Header.Sizes {
			continue
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			x, y := sa[d.Name], sb[d.Name]
			if x.Median != y.Median || x.Q1 != x.Q3 || y.Q1 != y.Q3 {
				fmt.Printf("%-20s %-34s A=%v B=%v  COUNT DIFFERS\n", name, d.Name, x.Median, y.Median)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d check(s) failed", bad)
	}
	fmt.Println("ok: every end-to-end metric within its bound, every exact count equal")
	return nil
}
