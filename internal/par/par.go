// Package par holds the bounded-worker fan-out driver and the contiguous
// chunker shared by the data-movement layers: source scans, sink exports and
// result re-partitioning all drive CPU-bound per-chunk work the same way,
// and keeping one implementation means cancellation ordering and the
// GOMAXPROCS cap cannot drift apart between the input and output halves of
// the data-source API.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes f(0..n-1) on at most width goroutines, stopping at the first
// error or at ctx cancellation (in which case it returns ctx.Err()). Every
// started goroutine exits before it returns. Indices are handed out in
// order and every started call completes, so when several calls fail the
// error returned is the lowest index's — the one a sequential loop would
// have met first — whichever goroutine hit its error soonest. The work is
// CPU-bound by assumption, so the goroutine count is additionally capped at
// GOMAXPROCS — the n callers ask for is honored regardless, but on a small
// machine extra goroutines are pure scheduling overhead.
func Run(ctx context.Context, n, width int, f func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if width > n {
		width = n
	}
	if p := runtime.GOMAXPROCS(0); width > p {
		width = p
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		errAt    int
		firstErr error
	)
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := f(i); err != nil {
					errMu.Lock()
					if firstErr == nil || i < errAt {
						errAt, firstErr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Chunks slices vs into at most n contiguous chunks without copying,
// mirroring the engine's default partitioner so chunked data lands exactly
// like pre-partitioned data. Returns nil for empty input.
func Chunks[T any](vs []T, n int) [][]T {
	if len(vs) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	per := (len(vs) + n - 1) / n
	var out [][]T
	for lo := 0; lo < len(vs); lo += per {
		hi := lo + per
		if hi > len(vs) {
			hi = len(vs)
		}
		out = append(out, vs[lo:hi])
	}
	return out
}
