package engine

import (
	"context"
	"fmt"

	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Exchange distributes the slot loops of the engine's expensive wide operators
// (theta, min-max, cartesian and hash joins) across the nodes of a cleaning
// cluster.
//
// The execution model is SPMD over a replicated catalog: every node —
// coordinator and workers alike — runs the *same* query pipeline over the
// *same* registered sources. Narrow operators, shuffles and group reduces run
// replicated on every node, so each node's intermediate state is bit-identical
// to single-process execution. Only the O(n·m) comparison loops are "masked":
// each node executes the slots Mask assigns to it, ships the slot outputs to
// the coordinator's barrier via Gather, and receives the full slot vector
// back. Because every masked loop body is a pure function of replicated stage
// input and the slot index, any node can recompute any slot — which is what
// lets a barrier reassign the slots of a dead worker to a surviving node (the
// non-empty `extra` return) instead of failing the query.
//
// The contract an implementation must honor:
//
//   - Mask(stage, n) partitions [0,n) across the session's nodes: the union
//     of every node's mask is exactly [0,n), the masks are disjoint, and the
//     assignment is a pure function of (stage, n, initial membership) so all
//     nodes agree without communication.
//   - Gather blocks until the stage's full output is known, a peer failure
//     requires this node to take over slots (extra non-nil — recompute those
//     slots and call Gather again with them), or the job fails/cancels (err
//     non-nil).
//   - Stage identifiers arrive in the same order on every node (the engine
//     numbers masked stages sequentially per job), so a barrier can key
//     state by stage name alone.
type Exchange interface {
	// Mask returns the slot indices of [0,n) this node must execute for the
	// named stage.
	Mask(stage string, n int) []int
	// Gather submits locally executed slots and blocks until the stage
	// completes. Exactly one of the returns is meaningful: full (all n slot
	// outputs, in slot order), extra (additional slots this node must
	// execute and resubmit because a peer died), or err (job failed or was
	// cancelled — the engine poisons the job and aborts).
	Gather(stage string, n int, local map[int][]types.Value) (full [][]types.Value, extra []int, err error)
}

// exchangeCtxKey carries an Exchange through a Go context into Context.Job —
// the server attaches a cluster session to the request context and the engine
// picks it up without any public plumbing through the query layers.
type exchangeCtxKey struct{}

// WithExchange returns a context that routes the masked stages of any job
// derived from it (Context.Job) through ex. Passing the result to
// DB.QueryContext is how a cluster node joins a distributed query.
func WithExchange(ctx context.Context, ex Exchange) context.Context {
	return context.WithValue(ctx, exchangeCtxKey{}, ex)
}

// failBox wraps a job-poisoning error so it can live in an atomic.Pointer.
type failBox struct{ err error }

// Fail poisons the job: Err returns err from now on, operator loops abort,
// and the query surfaces it. Used by exchanges to propagate peer failures
// through operators that have no error return of their own (hash joins,
// group reduces). The first failure wins.
func (c *Context) Fail(err error) {
	if err == nil {
		return
	}
	c.failed.CompareAndSwap(nil, &failBox{err: err})
}

// RunMasked is the one driver of a masked stage: execute this node's slots
// of [0,n) on at most width goroutines, then — when an exchange is present —
// gather the rest from peers, re-executing whatever slots a dead peer's
// barrier hands back. It returns the full slot-output vector and the slots
// that ran here (mask plus adoptions). Without an exchange every slot is this
// node's and no gather follows — the single-process path, with nothing
// encoded or copied. Join slots, scan chunks and scan type votes all run
// through it; they differ only in the stage name and the slot body.
//
// exec must be a pure, deterministic function of the (replicated) stage input
// and the slot index: it runs on whichever node owns the slot, and may run
// again on a survivor after a peer failure.
func RunMasked(ctx context.Context, ex Exchange, stage string, n, width int, exec func(i int) ([]types.Value, error)) (full [][]types.Value, ran []int, err error) {
	full = make([][]types.Value, n)
	if n == 0 { // an empty stage never reaches the exchange
		return full, nil, ctx.Err()
	}
	var mine []int
	if ex != nil {
		mine = ex.Mask(stage, n)
	} else {
		mine = make([]int, n)
		for i := range mine {
			mine[i] = i
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		err := par.Run(ctx, len(mine), width, func(k int) error {
			rows, err := exec(mine[k])
			full[mine[k]] = rows
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		ran = append(ran, mine...)
		if ex == nil {
			return full, ran, nil
		}
		local := make(map[int][]types.Value, len(mine))
		for _, i := range mine {
			local[i] = full[i]
		}
		got, extra, err := ex.Gather(stage, n, local)
		if err != nil {
			return nil, nil, err
		}
		if len(extra) == 0 {
			return got, ran, nil
		}
		mine = extra // a peer died: recompute its slots here and resubmit
	}
}

// maskedRun runs the n slot bodies of a wide join stage through RunMasked on
// the job's exchange, numbering the stage in plan order so every node derives
// the same identifier.
func (c *Context) maskedRun(name string, n int, exec func(i int) []types.Value) ([][]types.Value, error) {
	goctx := c.goctx
	if goctx == nil {
		goctx = context.Background()
	}
	var stage string
	if c.exchange != nil && n > 0 {
		stage = fmt.Sprintf("%03d/%s", c.stageSeq.Add(1), name)
	}
	full, _, err := RunMasked(goctx, c.exchange, stage, n, c.Workers, func(i int) ([]types.Value, error) {
		return exec(i), c.Err()
	})
	if err != nil {
		c.Fail(err)
	}
	return full, err
}
