package main

import (
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode pins the contract between BENCHMARK.json and
// the program: same workloads, same metrics, same units, in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
	seen := map[string]bool{}
	for _, n := range workloadNames {
		seen[n] = true
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %v", d.Name, nameRE)
			}
			if seen[d.Name] {
				t.Errorf("name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestSmoke runs every workload twice at tiny sizes, untraced and traced:
// every op must verify against the oracle, every metric must be present with
// its unit, every end-to-end metric must be non-zero, and the counts taken
// from the program's own counters must repeat exactly.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var traced [2]result
			for run := range traced {
				for trace, defs := range [][]metricDef{endToEnd, perLayer} {
					o := options{workload: name, seed: 7, ops: 3, scale: 0.05, trace: trace, setups: 1}
					if name == wServeMix {
						o.ops = 2 * len(servePattern)
					}
					res, err := measure(o, work)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("trace %d: %d of %d ops failed", trace, res.Failed, res.Attempted)
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("trace %d: %d metrics reported, want %d", trace, len(res.Metrics), len(defs))
					}
					for _, d := range defs {
						m, ok := res.Metrics[d.Name]
						if !ok || m.Unit != d.Unit {
							t.Errorf("trace %d: metric %s missing or unit %q, want %q", trace, d.Name, m.Unit, d.Unit)
						}
						if trace == 0 && m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
						}
					}
					if trace == 1 {
						traced[run] = res
					}
				}
			}
			for _, d := range perLayer {
				if a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value; d.Exact && a != b {
					t.Errorf("count %s differs between two runs: %v, %v", d.Name, a, b)
				}
			}
			m := traced[0].Metrics
			switch name {
			case wAppendClean:
				if v := m["cleandb.view_delta_hit_ratio"].Value; v != 1 {
					t.Errorf("cleandb.view_delta_hit_ratio = %v, want 1", v)
				}
			case wServeMix:
				if v := m["cleandb.plan_cache_hit_ratio"].Value; v != 0.9 {
					t.Errorf("cleandb.plan_cache_hit_ratio = %v, want 0.9", v)
				}
				if v := m["server.rejected"].Value; v != 0 {
					t.Errorf("server.rejected = %v, want 0", v)
				}
			case wClusterTheta:
				if v := m["dist.custody_rescans"].Value; v != 0 {
					t.Errorf("dist.custody_rescans = %v, want 0", v)
				}
				if v := m["dist.exec_slots_cluster"].Value; v <= 0 {
					t.Errorf("dist.exec_slots_cluster = %v, want > 0", v)
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// halfSlowRun is a run of twelve one-op segments of 10 ms of work each, the
// first six met by a machine at its reference speed and the last six by one
// that takes num/den times as long.
func halfSlowRun(num, den time.Duration) runStats {
	const ops = 12
	st := runStats{readings: make([]reading, ops+1)}
	for k := 0; k <= ops; k++ {
		n, d := time.Duration(1), time.Duration(1)
		if k >= ops/2 {
			n, d = num, den
		}
		st.readings[k] = reading{took: refReading * n / d, at: time.Unix(int64(k), 0)}
		if k < ops {
			st.durs = append(st.durs, 10*time.Millisecond*n/d)
			st.segs = append(st.segs, segment{first: k, n: 1, wall: 10 * time.Millisecond * n / d, cpu: 20 * time.Millisecond * n / d})
		}
	}
	st.toReferenceSpeed(2)
	return st
}

// TestToReferenceSpeed checks the scaling of a run whose second half met a
// slow machine, and that a half that met a disturbed one is set aside.
func TestToReferenceSpeed(t *testing.T) {
	st := halfSlowRun(5, 4)
	if got := percentile(st.refDurs, 90); got != 10*time.Millisecond {
		t.Errorf("p90 op at reference speed = %v, want 10ms", got)
	}
	if st.refWall != 120*time.Millisecond || st.refCPU != 240*time.Millisecond || st.setAside != 0 {
		t.Errorf("slow half: wall %v, CPU %v, %d segments set aside; want 120ms, 240ms, 0", st.refWall, st.refCPU, st.setAside)
	}

	st = halfSlowRun(2, 1)
	if len(st.refDurs) != 6 || st.refWall != 60*time.Millisecond || st.setAside != 6 {
		t.Errorf("disturbed half: %d ops, wall %v, %d segments set aside; want 6, 60ms, 6", len(st.refDurs), st.refWall, st.setAside)
	}

	st = runStats{readings: []reading{{took: 2 * refReading}, {took: 2 * refReading}}, durs: []time.Duration{20 * time.Millisecond}}
	st.segs = []segment{{n: 1, wall: 20 * time.Millisecond}}
	st.toReferenceSpeed(2)
	if len(st.refDurs) != 1 || st.refDurs[0] != 10*time.Millisecond || st.setAside != 0 {
		t.Errorf("run disturbed throughout: ops %v, %d set aside; want [10ms], 0", st.refDurs, st.setAside)
	}
}

// TestDisturbedByTheft checks the steal rule: two ticks or more, and more
// than stolenAbove of the CPU time the readings span.
func TestDisturbedByTheft(t *testing.T) {
	span := func(stolen time.Duration) []reading {
		t0 := time.Unix(0, 0)
		return []reading{{took: refReading, at: t0}, {took: refReading, at: t0.Add(250 * time.Millisecond), stolen: stolen}}
	}
	for _, c := range []struct {
		stolen time.Duration
		want   bool
	}{{0, false}, {stealTick, false}, {2 * stealTick, true}, {100 * time.Millisecond, true}} {
		if got := disturbed(span(c.stolen), 2); got != c.want {
			t.Errorf("%v stolen of 2 × 250ms: disturbed = %v, want %v", c.stolen, got, c.want)
		}
	}
	long := []reading{{took: refReading, at: time.Unix(0, 0)}, {took: refReading, at: time.Unix(10, 0), stolen: 2 * stealTick}}
	if disturbed(long, 2) {
		t.Errorf("20ms stolen of 2 × 10s counts as disturbed")
	}
}

// TestOracleLevenshtein checks the oracle's own edit distance on known cases.
func TestOracleLevenshtein(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want int
	}{{"", "", 0}, {"abc", "", 3}, {"kitten", "sitting", 3}, {"flaw", "lawn", 2}} {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
