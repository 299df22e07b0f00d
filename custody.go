package cleandb

import (
	"context"

	"cleandb/internal/engine"
	"cleandb/internal/source"
)

// Partition-custody loads. Every load is source.ScanMasked driving the
// format's scan plan; what a cluster session changes is the mask. When the
// session's exchange reports PartitionCustody, each member builds only the
// chunks rendezvous hashing assigns it (stages "scanvote/<name>" and
// "scan/<name>", masked by dist.PartitionOwner) and gathers everyone else's
// through the same framed barrier exchange the joins use — so every member
// still ends the load with the complete, bit-identical partition vector, and
// all downstream SPMD execution is untouched. What scales with the member
// count is the bytes each node parses, which is what dominates small clusters
// when every member loads everything.
//
// A member that dies mid-scan has its open chunks reassigned by the barrier
// and the adopting member re-parses them. The floor is the coordinator
// building every chunk itself — exactly the single-process scan.

// custodyExchange returns the exchange this load divides through, or nil when
// every chunk is this member's: the entry must be catalog-registered (stages
// are keyed by its name), the query must carry a partition-custody exchange,
// and the source must be plan-driven.
func (e *sourceEntry) custodyExchange(goctx context.Context) (source.PartitionedScanner, engine.Exchange) {
	if e.name == "" {
		return nil, nil
	}
	ex, ok := engine.ExchangeFrom(goctx)
	if !ok {
		return nil, nil
	}
	if pex, ok := ex.(engine.PartitionedExchange); !ok || !pex.PartitionCustody() {
		return nil, nil
	}
	ps, ok := e.src.(source.PartitionedScanner)
	if !ok {
		return nil, nil
	}
	return ps, ex
}

// custodyScanError marks a failure of a custody-divided scan. Whether such a
// scan succeeds depends on cluster session state — a barrier sweep can evict
// this member, the session can close under it — not just on the source bytes,
// so load() must not memoize the failure: the next session retries the scan
// from scratch.
type custodyScanError struct{ err error }

func (c *custodyScanError) Error() string { return c.err.Error() }
func (c *custodyScanError) Unwrap() error { return c.err }
