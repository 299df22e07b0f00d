package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultFile is what the suite writes and -check reads.
type resultFile struct {
	Header  header                     `json:"header"`
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"` // workload → metric → stat
	Fails   map[string]map[string]int  `json:"fails"`   // workload → attempted / failed
}

type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops,omitempty"`
	Scale      float64 `json:"scale"`
	Runs       int     `json:"runs"`
	Sizes      sizes   `json:"sizes"`
	Date       string  `json:"date"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Run      int    `json:"run"`
	result
}

// stat summarizes one metric of one workload over the suite's repeated runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles follows Python's statistics.quantiles(values, n=4).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func summarize(vs []float64, unit string) stat {
	q1, q3 := quartiles(vs)
	return stat{Median: medianF(vs), Q1: q1, Q3: q3, N: len(vs), Unit: unit}
}

// runSuite re-executes this binary once per workload and pass, sequentially,
// so every workload has its own heap, VmHWM and GC history, and gathers the
// result lines into one file.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	width := engineWidth()
	rf := resultFile{
		Header: header{
			Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: width,
			Seed: o.seed, Seconds: o.seconds, Ops: o.ops, Scale: o.scale, Runs: o.runs,
			Sizes: frozenSizes(o.scale), Date: time.Now().UTC().Format(time.RFC3339),
		},
		Summary: map[string]map[string]stat{},
		Fails:   map[string]map[string]int{},
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for run := 1; run <= o.runs; run++ {
		for _, name := range workloadNames {
			for _, trace := range []int{0, 1} {
				args := []string{
					"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
					"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"--trace", strconv.Itoa(trace), "--scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
				}
				if o.ops > 0 {
					args = append(args, "--ops", strconv.Itoa(o.ops))
				}
				if trace == 1 {
					args = append(args, "--trace-out", filepath.Join(".bench_build", "trace-"+name+".json"))
				}
				res, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", name, trace, err)
				}
				rf.Runs = append(rf.Runs, runRecord{Workload: name, Trace: trace, Run: run, result: *res})
				if values[name] == nil {
					values[name] = map[string][]float64{}
					rf.Fails[name] = map[string]int{}
				}
				rf.Fails[name]["attempted"] += res.Attempted
				rf.Fails[name]["failed"] += res.Failed
				for k, v := range res.Metrics {
					values[name][k] = append(values[name][k], v.Value)
				}
			}
		}
	}
	for name, ms := range values {
		rf.Summary[name] = map[string]stat{}
		for k, vs := range ms {
			rf.Summary[name][k] = summarize(vs, unitOf[k])
		}
	}
	printSummary(rf)

	out := o.out
	if out == "" {
		out = filepath.Join(".bench_build", "BENCH.json")
	}
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", out)
	for name, f := range rf.Fails {
		if f["failed"] > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", name, f["failed"], f["attempted"])
		}
	}
	return nil
}

// runChild runs one workload process, relays its output, and parses the
// result line it ends with.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printSummary(rf resultFile) {
	for _, name := range workloadNames {
		sum := rf.Summary[name]
		if sum == nil {
			continue
		}
		f := rf.Fails[name]
		fmt.Printf("\n== %s  (%d ops attempted, %d failed, %d run(s)) ==\n", name, f["attempted"], f["failed"], rf.Header.Runs)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				s, ok := sum[d.Name]
				if !ok {
					continue
				}
				if s.N > 1 {
					fmt.Printf("%-36s %16.6f %-6s [q1 %.6g, q3 %.6g, n=%d]\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
				} else {
					fmt.Printf("%-36s %16.6f %s\n", d.Name, s.Median, d.Unit)
				}
			}
		}
	}
}
