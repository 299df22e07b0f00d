// Command bench is CleanDB's benchmark: five closed-loop workloads over
// seeded inputs, every answer checked against a benchmark-owned oracle,
// end-to-end metrics from an untraced run and per-layer metrics from a traced
// one. See README.md in this directory.
//
//	go run ./bench                                   # the whole suite, one result file
//	go run ./bench --workload serve_mix --seed 3 --seconds 10 --trace 0
//	go run ./bench -check A.json B.json              # regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traceOps is the number of ops the traced pass runs (rounded up to whole
// cycles), and the untraced pass it is compared with.
const traceOps = 20

// setupRounds is how many times set-up runs so that setup_s is a median.
const setupRounds = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ops      int
	scale    float64
	traceOut string
	out      string
	runs     int
	check    bool
	// setups is how many times set-up runs before the measured run, and
	// settle how long the run may wait for a disturbed host; the command
	// line always uses setupRounds and settleFor, the smoke test one and none.
	setups int
	settle time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line; empty runs the whole suite")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of a timed run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.IntVar(&o.ops, "ops", 0, "end a timed run after this many ops instead of -seconds")
	flag.Float64Var(&o.scale, "scale", 1, "input size multiplier (the smoke test shrinks the inputs)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file")
	flag.StringVar(&o.out, "out", "", "suite mode: write the result file here (default .bench_build/BENCH.json)")
	flag.IntVar(&o.runs, "runs", 1, "suite mode: repeat every run and report median and quartiles")
	flag.BoolVar(&o.check, "check", false, "compare two result files: -check A.json B.json")
	flag.Parse()
	o.setups, o.settle = setupRounds, settleFor

	var err error
	switch {
	case o.check:
		err = runCheck(flag.Args())
	case o.workload != "":
		err = runWorkload(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// engineWidth fixes GOMAXPROCS at min(nproc, 4) and returns it; workloads
// open their DBs WithWorkers(engineWidth) unless they state otherwise.
func engineWidth() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runWorkload is one process's work: measure the workload, print every metric
// by name and end with the one-line JSON result.
func runWorkload(o options) error {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	res, err := measure(o, root)
	if err != nil {
		return err
	}
	printMetrics(o, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure sets the workload up (several times, for a median set-up time) with
// its input files in a fresh directory under workRoot, then runs it untraced
// or traced.
func measure(o options, workRoot string) (result, error) {
	width := engineWidth()
	dir, err := os.MkdirTemp(workRoot, o.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	w, err := newWorkload(o.workload, env{seed: o.seed, sizes: frozenSizes(o.scale), workers: width, dir: dir})
	if err != nil {
		return result{}, err
	}
	defer w.teardown()
	if o.trace != 0 {
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		return tracedRun(w, o)
	}

	meter, err := newSpeedMeter(width, o.settle)
	if err != nil {
		return result{}, err
	}
	defer meter.close()
	setupS, err := timedSetups(w, o.setups, meter, width)
	if err != nil {
		return result{}, err
	}
	return untracedRun(w, o, meter, setupS), nil
}

// timedSetups sets w up n times and returns the median set-up time at the
// reference speed. The set-ups are scaled like the ops are, by one slowdown
// for all of them, and like the ops a set-up that met a disturbed host is set
// aside unless all of them did.
func timedSetups(w workload, n int, meter *speedMeter, procs int) (float64, error) {
	var secs, slow, cleanSecs, cleanSlow []float64
	for r := 0; r < n; r++ {
		w.teardown()
		around := []reading{meter.settled(), meter.read(), meter.read()}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		around = append(around, meter.readings(3)...)
		slow = append(slow, slowdownOf(around))
		if !disturbed(around, procs) {
			cleanSecs, cleanSlow = append(cleanSecs, secs[r]), append(cleanSlow, slow[r])
		}
	}
	if len(cleanSecs) == 0 {
		cleanSecs, cleanSlow = secs, slow
	}
	setupS, slowdown := medianF(cleanSecs), medianF(cleanSlow)
	fmt.Printf("# set-up: machine slowdown %.3f, %d of %d set-ups set aside as disturbed; setup_s as the clock read it: %.6f\n",
		slowdown, n-len(cleanSecs), n, setupS)
	return setupS / slowdown, nil
}

func untracedRun(w workload, o options, meter *speedMeter, setupS float64) result {
	st := runClosedLoop(w, limit{seconds: o.seconds, ops: o.ops}, nil, meter)
	m := newMetrics(endToEnd)
	m.set("setup_s", setupS)
	m.set("resident_mb", residentMB())
	runtime.KeepAlive(w)
	if n := float64(st.attempted); n > 0 {
		m.set("op_ms.p50", ms(percentile(st.refDurs, 50)))
		m.set("op_ms.p90", ms(percentile(st.refDurs, 90)))
		// The share of ops that verified, over the ops and the time of the
		// segments that count.
		ref := float64(len(st.refDurs))
		m.set("throughput_ops_s", ref*float64(st.attempted-st.failed)/n/st.refWall.Seconds())
		m.set("cpu_ms_per_op", ms(st.refCPU)/ref)
		m.set("alloc_mb_per_op", float64(st.alloc)/(1<<20)/n)
		fmt.Printf("# waited %.1f s for the host to settle; %d of %d segments set aside as disturbed\n", meter.waited.Seconds(), st.setAside, len(st.segs))
		fmt.Printf("# machine slowdown %.3f over %d readings (1 = reference speed); as the clock read them: op_ms.p50 %.6f, op_ms.p90 %.6f, throughput_ops_s %.6f, cpu_ms_per_op %.6f\n",
			st.slowdown, len(st.readings), ms(percentile(st.durs, 50)), ms(percentile(st.durs, 90)),
			float64(st.attempted-st.failed)/st.wall.Seconds(), ms(st.cpu)/n)
	}
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", w.name(), st.firstErr)
	}
	return result{Correct: st.failed == 0 && st.attempted > 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}
}

// tracedRun runs the same ops twice — plain, then decomposed into spans — and
// derives the per-layer metrics from the spans, the program's own counters
// and standalone calls into each module on the workload's inputs.
func tracedRun(w workload, o options) (result, error) {
	n := o.ops
	if n <= 0 {
		n = traceOps
		if w.clients() > 1 {
			n = 100 * traceOps // sub-millisecond requests: p99 needs the samples
		}
	}
	c := w.cycle()
	n = (n + c - 1) / c * c
	// Plain, traced, plain: the plain passes on either side of the traced one
	// cancel whatever drift (heap growth, cache warmth) the order would add.
	base := runClosedLoop(w, limit{ops: n}, nil, nil)
	tr := newTracer()
	st := runClosedLoop(w, limit{ops: n}, tr, nil)
	base.merge(runClosedLoop(w, limit{ops: n}, nil, nil))

	m := newMetrics(perLayer)
	if p := percentile(base.durs, 50); p > 0 {
		m.set("trace.overhead_ratio", percentile(st.durs, 50).Seconds()/p.Seconds())
	}
	if err := w.layers(m, tr, base, st); err != nil {
		return result{}, fmt.Errorf("%s: layer metrics: %w", w.name(), err)
	}
	self, total := tr.selfTimes()
	if total > 0 {
		share := func(layers ...string) float64 {
			var d time.Duration
			for _, l := range layers {
				d += self[l]
			}
			return d.Seconds() / total.Seconds()
		}
		m.set("trace.source_sink_share", share("source", "sink"))
		if w.name() != wServeMix { // serve_mix states its share over miss requests only
			m.set("trace.frontend_share", share("lang", "monoid", "algebra", "core"))
		}
	}
	processMetrics(m)
	printSelfTimes(self, total)
	if o.traceOut != "" {
		if err := tr.flush(o.traceOut); err != nil {
			return result{}, err
		}
	}
	for _, s := range []runStats{base, st} {
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", w.name(), s.firstErr)
		}
	}
	attempted, failed := base.attempted+st.attempted, base.failed+st.failed
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printSelfTimes(self map[string]time.Duration, total time.Duration) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("# self time by layer over %.1f ms of traced ops\n", ms(total))
	for _, l := range layers {
		fmt.Printf("#   %-10s %9.3f ms  %5.1f%%\n", l, ms(self[l]), 100*self[l].Seconds()/total.Seconds())
	}
}

func printMetrics(o options, res result) {
	fmt.Printf("# workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d %s ops=%d failed=%d\n",
		o.workload, o.seed, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), res.Attempted, res.Failed)
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}
