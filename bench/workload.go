package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// env is what every workload is built from: the seed its inputs are generated
// from, the frozen input sizes, the engine width and a scratch directory
// inside the checkout for the files the program reads.
type env struct {
	seed    int64
	sizes   sizes
	workers int
	dir     string
}

// workload is one closed-loop traffic mix. setup covers everything before the
// timed run — input generation, file writes, oracle answers, DB and server
// start, warm-up ops — and may be called again after teardown.
type workload interface {
	name() string
	// clients is the number of closed-loop clients (never above nproc).
	clients() int
	// cycle is the length of the workload's fixed op sequence; a run executes
	// whole cycles. beginCycle runs before op i%cycle == 0, off the clock.
	cycle() int
	beginCycle() error
	setup() error
	teardown()
	// op is the timed operation; verify checks its answer against the oracle,
	// off the clock.
	op(i int) (any, error)
	verify(i int, out any) error
	// tracedOp is op decomposed into the finest public calls, each a span.
	tracedOp(i int, tr *tracer) (any, error)
	// layers fills the per-layer metrics after the plain (base) and traced
	// (st) passes ran.
	layers(m metrics, tr *tracer, base, st runStats) error
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case wUnifiedCold:
		return &unifiedCold{env: e}, nil
	case wDenialRepair:
		return &denialRepairWarm{env: e}, nil
	case wServeMix:
		return &serveMix{env: e}, nil
	case wAppendClean:
		return &appendReclean{env: e}, nil
	case wClusterTheta:
		return &clusterTheta{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// warmupOps is the minimum number of untimed ops that end every setup.
const warmupOps = 5

// warmUp runs n ops through op and verify, untimed.
func warmUp(w workload, n int) error {
	c := w.cycle()
	for i := 0; i < n; i++ {
		if i%c == 0 {
			if err := w.beginCycle(); err != nil {
				return err
			}
		}
		out, err := w.op(i)
		if err == nil {
			err = w.verify(i, out)
		}
		if err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// loopback serves h on a real 127.0.0.1 listener with an OS-chosen port.
type loopback struct {
	srv *http.Server
	url string
	err chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { l.err <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its goroutine.
func (l *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.err
}

// keepAliveClient is one closed-loop HTTP client holding one connection.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}
