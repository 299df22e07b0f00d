package cleaning

import (
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// DCConfig parameterizes a general denial-constraint check with inequality
// predicates — the paper's rule ψ: ∀t1,t2 ¬(t1.price < t2.price ∧
// t1.discount > t2.discount ∧ t1.price < X).
type DCConfig struct {
	// LeftFilter, when non-nil, pre-filters the left side of the self-join
	// (the paper's 0.01%-selectivity price filter). CleanM's normalization
	// guarantees this filter is pushed below the join.
	LeftFilter func(types.Value) bool
	// Pred is the violation predicate over a candidate pair.
	Pred func(t1, t2 types.Value) bool
	// Band supplies the band key the theta join sorts and prunes on (e.g.
	// price): engine.BandKey of the band attribute, NaN for a row it cannot
	// order.
	Band func(types.Value) float64
	// BandOp is the comparison between t1.Band and t2.Band implied by Pred
	// ("<" means pairs with t1.band >= t2.band max cannot match).
	BandOp string
	// Strategy selects the join algorithm.
	Strategy physical.ThetaStrategy
}

// JoinBand is the check's band in the engine's terms, the same attribute on
// both sides of the self-join; nil without a Band.
func (cfg DCConfig) JoinBand() *engine.Band {
	if cfg.Band == nil {
		return nil
	}
	return &engine.Band{Left: cfg.Band, Right: cfg.Band, Op: cfg.BandOp}
}

// DCCheck evaluates the denial constraint via a self theta join and returns
// the violating pairs. It returns engine.ErrBudgetExceeded when the selected
// strategy blows the context's comparison budget — how the experiments
// reproduce the paper's "fails to terminate" rows (Table 5).
func DCCheck(ds *engine.Dataset, cfg DCConfig) (*engine.Dataset, error) {
	left := ds
	if cfg.LeftFilter != nil {
		left = ds.Filter("dc:filter", cfg.LeftFilter)
	}
	return physical.ThetaJoin(cfg.Strategy, "dc", left, ds, cfg.JoinBand(), cfg.Pred, engine.PairCombine)
}
