package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// limit ends a timed run: after ops operations when ops > 0, otherwise once
// seconds of wall time have passed since the run began — ops, the
// verification between them and cycle resets together, so a run takes what
// it was given whatever share of it is on the op clock. Either way a run
// ends only on a cycle boundary, so every run executes whole cycles of the
// workload's fixed op sequence and the percentiles are not skewed by where
// the clock stopped.
type limit struct {
	seconds float64
	ops     int
}

func (l limit) reached(ops int, elapsed time.Duration) bool {
	if l.ops > 0 {
		return ops >= l.ops
	}
	return elapsed.Seconds() >= l.seconds
}

// runStats is the outcome of one timed run: as the clock read it, and — when
// the run was given a speed meter — as it would have read with the machine at
// its reference speed (see speedMeter).
type runStats struct {
	durs      []time.Duration // one per attempted op
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // time the closed loop spent inside ops
	cpu       time.Duration // process user+sys CPU over the same interval
	alloc     uint64        // heap bytes allocated over the same interval

	// segs[k] lies between readings[k] and readings[k+1] of the speed meter.
	segs     []segment
	readings []reading
	refDurs  []time.Duration
	refWall  time.Duration
	refCPU   time.Duration
	slowdown float64 // median over the segments; 1 is the reference speed
	setAside int     // segments left out of the ref fields as disturbed
}

// segment is the stretch of a run between two readings of the speed meter:
// ops durs[first:first+n] and the wall and CPU time they took.
type segment struct {
	first, n  int
	wall, cpu time.Duration
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative heap allocation in bytes (TotalAlloc without
// the stop-the-world of ReadMemStats, so it can bracket every op).
func heapAllocs() uint64 {
	s := []runtimemetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// speedMeter reads how fast the machine is right now by timing a fixed
// kernel. The reference sandbox is a small VM on a shared host: with nothing
// else running in it, the same code takes 15–30% longer for tens of seconds
// at a time when its neighbours are busy, which is more than the bounds the
// benchmark has to hold. So a timed run reads the meter between ops, every
// segmentEvery or so, and each op's time is divided by the slowdown the
// readings around it show. What is reported is the time the op would have
// taken with the machine at its reference speed; the raw medians and the
// run's slowdown are printed beside it.
//
// The kernel is a write pass and a read pass over a 4 MB buffer, on every P at
// once. A reading primes the buffer, times three such double passes and keeps
// the fastest, so that neither what the ops left in the caches nor a
// collector worker still finishing its cycle decides it. Of the kernels
// tried — arithmetic in registers, dependent loads in L2, this one, a read of
// 32 MB — the arithmetic one barely moves when the ops slow down and this one
// follows them best: CleanDB allocates 5–40 MB per cleaning op, so it waits on
// the memory system the neighbours share, not on the core's clock.
//
// The buffers are mapped outside the Go heap: on it they would double
// serve_mix's live heap, halve its GC frequency and change the very latency
// being measured.
//
// Dividing by the slowdown works while the machine is slow. A few times a day
// the host takes it away instead: for minutes /proc/stat counts half the
// time as stolen, ops take three to five times as long and the kernel, whose
// passes slip between the thefts, only 1.5 to 1.8 times. No factor repairs
// that, so every reading also notes the steal counter, the meter waits such
// a spell out (settled) and a run leaves the stretches it caught out of its
// times (toReferenceSpeed).
type speedMeter struct {
	maps   [][]byte
	bufs   [][]uint64
	sink   atomic.Uint64
	last   reading       // the latest reading settled returned
	waited time.Duration // slept so far, waiting for a disturbed host to settle
	// settleFor is the most the process waits, all told, for the host to
	// settle. The command line gives settleFor; the smoke test none, or under
	// the race detector, where the kernel takes ten times as long, it would
	// wait out every budget it has.
	settleFor time.Duration
}

// reading is one look at the machine: how long the kernel took, when, and how
// much CPU time the host had stolen from this VM by then, over all its CPUs.
type reading struct {
	took   time.Duration
	at     time.Time
	stolen time.Duration
}

const (
	meterWords = 1 << 19 // 4 MB per P
	// refReading is the kernel's usual time on the reference sandbox when its
	// host is quiet; a reading twice as long means the machine is half as fast.
	refReading = 480 * time.Microsecond
	// segmentEvery is the op time after which a one-client run reads the meter
	// again. A reading takes about 2 ms.
	segmentEvery = 50 * time.Millisecond
	// roundOps is the number of requests a several-client run issues between
	// two readings.
	roundOps = 1000
	// disturbedAbove is the slowdown, and stolenAbove the share of CPU time
	// stolen, past which the machine counts as taken away. The busy-neighbour
	// spells end near 1.3, though one reading in thirty is higher on a quiet
	// host, which is why a single reading decides nothing; the steal counter
	// moves by a tick an hour on a quiet host, and a tick is 10 ms.
	disturbedAbove = 1.4
	stolenAbove    = 0.02
	stealTick      = 10 * time.Millisecond
	// settleFor is the most a run from the command line waits, all told, for
	// the host to settle, settlePause how long it sleeps between two looks,
	// and settleLook the readings of one look: 50 ms of work on every P,
	// enough for the steal counter to show a theft. A run that waited
	// settleFor still ends well inside the driver's 180 s.
	settleFor   = 100 * time.Second
	settlePause = 450 * time.Millisecond
	settleLook  = 25
)

// slowdownOf is the median kernel time of rs over the reference reading.
func slowdownOf(rs []reading) float64 {
	took := make([]time.Duration, len(rs))
	for i, r := range rs {
		took[i] = r.took
	}
	return percentile(took, 50).Seconds() / refReading.Seconds()
}

// disturbed reports whether the readings rs, in the order they were taken on
// procs Ps, show a machine taken away rather than a slow one.
func disturbed(rs []reading, procs int) bool {
	if slowdownOf(rs) > disturbedAbove {
		return true
	}
	first, last := rs[0], rs[len(rs)-1]
	stolen := last.stolen - first.stolen
	return stolen >= 2*stealTick && stolen.Seconds() > stolenAbove*float64(procs)*last.at.Sub(first.at).Seconds()
}

// stolenTime is the steal column of /proc/stat's first line: the CPU time the
// hypervisor gave to someone else while this VM had work for it. Where it
// cannot be read the benchmark goes without.
func stolenTime() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * stealTick
}

func newSpeedMeter(procs int, settleFor time.Duration) (*speedMeter, error) {
	m := &speedMeter{settleFor: settleFor}
	for p := 0; p < procs; p++ {
		raw, err := syscall.Mmap(-1, 0, 8*meterWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("speed meter: mmap: %w", err)
		}
		m.maps = append(m.maps, raw)
		b := unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), meterWords)
		for i := range b {
			b[i] = uint64(i) // touch every page before the first reading
		}
		m.bufs = append(m.bufs, b)
	}
	return m, nil
}

func (m *speedMeter) close() {
	for _, raw := range m.maps {
		_ = syscall.Munmap(raw) // the run is over; a mapping that stays is reclaimed at exit
	}
	m.maps, m.bufs = nil, nil
}

// read runs the kernel on every P at once; the reading is the mean of their
// fastest passes.
func (m *speedMeter) read() reading {
	var wg sync.WaitGroup
	best := make([]time.Duration, len(m.bufs))
	for p, b := range m.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(p)
			for i := range b {
				x += b[i]
			}
			for pass := 0; pass < 3; pass++ {
				t0 := time.Now()
				for i := range b {
					b[i] += x
				}
				for i := range b {
					x += b[i]
				}
				if d := time.Since(t0); pass == 0 || d < best[p] {
					best[p] = d
				}
			}
			m.sink.Add(x)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return reading{took: sum / time.Duration(len(best)), at: time.Now(), stolen: stolenTime()}
}

// readings is n readings in a row.
func (m *speedMeter) readings(n int) []reading {
	rs := make([]reading, n)
	for i := range rs {
		rs[i] = m.read()
	}
	return rs
}

// settled is a reading for the stretch of work about to start. When it,
// the one before and — a single high reading decides nothing — one more say
// the host has taken the machine away, settled sleeps and looks again until
// a look says otherwise or the process has waited m.settleFor in all; it
// returns the last reading either way.
func (m *speedMeter) settled() reading {
	look := []reading{m.read()}
	if !m.last.at.IsZero() {
		look = []reading{m.last, look[0]}
	}
	if disturbed(look[len(look)-1:], len(m.bufs)) {
		look = append(look, m.read())
	}
	for disturbed(look, len(m.bufs)) && m.waited < m.settleFor {
		time.Sleep(settlePause)
		m.waited += settlePause
		look = m.readings(settleLook)
	}
	m.last = look[len(look)-1]
	return m.last
}

// toReferenceSpeed fills the ref fields: every segment's times divided by the
// slowdown of the six readings nearest to it (the median of six shrugs off
// the reading that met a scheduler hiccup or a GC worker). Segments whose
// six readings show a disturbed machine are set aside, unless that is all of
// them.
func (st *runStats) toReferenceSpeed(procs int) {
	slow := make([]float64, len(st.segs))
	aside := make([]bool, len(st.segs))
	for k := range st.segs {
		near := st.readings[max(k-2, 0):min(k+4, len(st.readings))]
		slow[k] = slowdownOf(near)
		if aside[k] = disturbed(near, procs); aside[k] {
			st.setAside++
		}
	}
	if st.setAside == len(st.segs) {
		st.setAside = 0
	}
	for k, sg := range st.segs {
		if st.setAside > 0 && aside[k] {
			continue
		}
		for _, d := range st.durs[sg.first : sg.first+sg.n] {
			st.refDurs = append(st.refDurs, time.Duration(float64(d)/slow[k]))
		}
		st.refWall += time.Duration(float64(sg.wall) / slow[k])
		st.refCPU += time.Duration(float64(sg.cpu) / slow[k])
	}
	st.slowdown = medianF(slow)
}

// runClosedLoop drives w with its stated number of closed-loop clients: each
// client issues its next op only after the previous one returned. With a
// meter it reads the machine's speed between ops and fills the run's
// reference-speed fields.
//
// With one client, wall time, CPU and allocation are bracketed per op and
// verification runs between ops, off all three meters. With several clients
// the ops overlap, so the meters bracket rounds of roundOps requests and the
// workload keeps its in-op verification cheap (a count and a hash over bytes
// the client had to read anyway).
func runClosedLoop(w workload, lim limit, traced *tracer, meter *speedMeter) runStats {
	var st runStats
	if w.clients() > 1 {
		runConcurrent(&st, w, lim, traced, meter)
	} else {
		runSerial(&st, w, lim, traced, meter)
	}
	if meter != nil {
		st.readings = append(st.readings, meter.read())
		st.toReferenceSpeed(len(meter.bufs))
	}
	return st
}

// stopwatch returns the time since now, less what the meter slept in between:
// a run is given its seconds of work, not of waiting for the host.
func stopwatch(meter *speedMeter) func() time.Duration {
	start := time.Now()
	if meter == nil {
		return func() time.Duration { return time.Since(start) }
	}
	waited := meter.waited
	return func() time.Duration { return time.Since(start) - (meter.waited - waited) }
}

func runSerial(st *runStats, w workload, lim limit, traced *tracer, meter *speedMeter) {
	cycle := w.cycle()
	active := stopwatch(meter)
	var seg *segment
	for i := 0; ; i++ {
		if i%cycle == 0 {
			if i > 0 && lim.reached(i, active()) {
				break
			}
			if err := w.beginCycle(); err != nil {
				st.fail(err)
				break
			}
		}
		// A cycle's reset can take as long as many ops, so the reading before
		// it says little about the speed after it.
		if meter != nil && (i%cycle == 0 || seg.wall >= segmentEvery) {
			st.readings = append(st.readings, meter.settled())
			st.segs = append(st.segs, segment{first: len(st.durs)})
			seg = &st.segs[len(st.segs)-1]
		}
		a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
		out, err := doOp(w, i, traced)
		d := time.Since(t0)
		c := cpuTime() - c0
		st.alloc += heapAllocs() - a0
		st.cpu += c
		st.wall += d
		st.durs = append(st.durs, d)
		st.attempted++
		if seg != nil {
			seg.n++
			seg.wall += d
			seg.cpu += c
		}
		if err == nil {
			err = w.verify(i, out)
		}
		if err != nil {
			st.fail(err)
		}
	}
}

func doOp(w workload, i int, traced *tracer) (any, error) {
	if traced != nil {
		return w.tracedOp(i, traced)
	}
	return w.op(i)
}

// merge folds another run of the same workload into st.
func (st *runStats) merge(o runStats) {
	st.durs = append(st.durs, o.durs...)
	st.attempted += o.attempted
	st.failed += o.failed
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.wall += o.wall
	st.cpu += o.cpu
	st.alloc += o.alloc
}

func (st *runStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// runConcurrent runs whole cycles in rounds of roundOps requests: the clients
// share a counter, stop at the round's last request and meet, so that the
// meter can be read with nothing else running.
func runConcurrent(st *runStats, w workload, lim limit, traced *tracer, meter *speedMeter) {
	cycle := w.cycle()
	active := stopwatch(meter)
	for base := 0; base == 0 || !lim.reached(base, active()); base += cycle {
		if err := w.beginCycle(); err != nil {
			st.fail(err)
			return
		}
		for lo := base; lo < base+cycle; lo += roundOps {
			if meter != nil {
				st.readings = append(st.readings, meter.settled())
			}
			st.segs = append(st.segs, runRound(st, w, lo, min(lo+roundOps, base+cycle), traced))
		}
	}
}

// runRound issues requests lo..hi-1 from the workload's clients and returns
// when the last has been answered.
func runRound(st *runStats, w workload, lo, hi int, traced *tracer) segment {
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(lo))
	seg := segment{first: len(st.durs)}
	a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var durs []time.Duration
			var failed int
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					break
				}
				t0 := time.Now()
				out, err := doOp(w, i, traced)
				durs = append(durs, time.Since(t0))
				if err == nil {
					err = w.verify(i, out)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			mu.Lock()
			st.durs = append(st.durs, durs...)
			st.failed += failed
			if st.firstErr == nil {
				st.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.wall, seg.cpu = time.Since(t0), cpuTime()-c0
	seg.n = len(st.durs) - seg.first
	st.wall += seg.wall
	st.cpu += seg.cpu
	st.alloc += heapAllocs() - a0
	st.attempted = len(st.durs)
	return seg
}

// residentMB is the live heap after a forced collection. The caller keeps the
// workload (its DBs, caches and views) reachable across the call.
func residentMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank percentile of ds (p in (0,100]).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF is the median of vs (0 when empty).
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf times f up to reps times and returns the median duration: the
// layer timers use it so one scheduler hiccup does not set a per-layer number.
// It stops repeating once layerBudget is spent, which keeps a slow layer from
// stretching the traced pass.
func medianOf(reps int, f func()) time.Duration {
	var ds []time.Duration
	var spent time.Duration
	for i := 0; i < reps && (i == 0 || spent < layerBudget); i++ {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		ds = append(ds, d)
		spent += d
	}
	return percentile(ds, 50)
}

const layerBudget = 250 * time.Millisecond

// mbPerS is a throughput in MB/s (decimal megabytes, as in the issue).
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
