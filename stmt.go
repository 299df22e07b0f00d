package cleandb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"cleandb/internal/core"
	"cleandb/internal/types"
)

// NamedArg binds a value to a `:name` placeholder. Build one with Named.
type NamedArg struct {
	Name  string
	Value any
}

// Named returns a NamedArg binding value to the `:name` placeholder.
// Positional `?` placeholders are bound by the plain (non-NamedArg)
// arguments in order; the two styles may be mixed in one call.
func Named(name string, value any) NamedArg { return NamedArg{Name: name, Value: value} }

// Stmt is a prepared CleanM statement: the text was parsed, de-sugared,
// normalized and lowered through all three optimization levels exactly once,
// and the result can be executed any number of times with different
// parameter bindings.
//
// A Stmt is immutable and safe for concurrent use by multiple goroutines;
// each execution gets independent parameter bindings, cost counters and
// cancellation. The statement is planned against the catalog as of
// PrepareStmt — data registered afterwards is not visible to it (prepare
// again to pick it up).
type Stmt struct {
	prep *core.Prepared
	// query is the original statement text (for diagnostics).
	query string
}

// Query returns the statement text the Stmt was prepared from.
func (s *Stmt) Query() string { return s.query }

// Params lists the statement's parameter keys in appearance order: "$1",
// "$2", ... for positional `?` placeholders, lowercased names for `:name`.
func (s *Stmt) Params() []string { return s.prep.Params() }

// Explain returns the statement's three-level EXPLAIN text (computed at
// prepare time; parameters render as placeholders).
func (s *Stmt) Explain() string { return s.prep.Explain() }

// Exec executes the statement with the given arguments and no cancellation.
func (s *Stmt) Exec(args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext executes the statement under ctx with the given arguments.
// Cancellation and deadlines on ctx propagate into the engine's operator
// loops, so a cancelled execution aborts promptly (returning ctx.Err())
// rather than finishing a runaway theta join.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	params, err := bindArgs(s.prep.Params(), args)
	if err != nil {
		return nil, err
	}
	res, err := s.prep.ExecuteContext(ctx, params)
	if err != nil {
		return nil, err
	}
	// Executing a prepared statement reuses its plan by construction.
	return &Result{inner: res, planReused: true}, nil
}

// ExecuteTo executes the statement under ctx with the given arguments and
// pumps its primary output straight into sk, partition-parallel under the
// query's job context — the prepared-statement face of DB.ExecuteTo. The
// returned Result carries metrics and repair summaries; the rows went to
// the sink.
func (s *Stmt) ExecuteTo(ctx context.Context, sk Sink, args ...any) (*Result, error) {
	if sk == nil {
		return nil, fmt.Errorf("cleandb: ExecuteTo needs a sink")
	}
	params, err := bindArgs(s.prep.Params(), args)
	if err != nil {
		return nil, err
	}
	res, err := s.prep.ExecuteToContext(ctx, params, sk)
	if err != nil {
		return nil, err
	}
	return &Result{inner: res, planReused: true, exported: res.Stats.ExportedRows}, nil
}

// bindArgs resolves call arguments against the statement's parameter keys:
// plain arguments fill `?` placeholders in order, NamedArg values fill
// `:name` placeholders. Every placeholder must be bound, every argument must
// be consumed.
func bindArgs(keys []string, args []any) (map[string]types.Value, error) {
	var positional []string
	named := map[string]bool{}
	for _, k := range keys {
		if strings.HasPrefix(k, "$") {
			positional = append(positional, k)
		} else {
			named[k] = true
		}
	}
	params := make(map[string]types.Value, len(keys))
	pi := 0
	for _, a := range args {
		if na, ok := a.(NamedArg); ok {
			k := strings.ToLower(na.Name)
			if !named[k] {
				return nil, fmt.Errorf("cleandb: statement has no :%s parameter", k)
			}
			v, err := toValue(na.Value)
			if err != nil {
				return nil, fmt.Errorf("cleandb: argument :%s: %w", k, err)
			}
			params[k] = v
			continue
		}
		if pi >= len(positional) {
			return nil, fmt.Errorf("cleandb: too many positional arguments (statement has %d '?' placeholders)", len(positional))
		}
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("cleandb: argument %d: %w", pi+1, err)
		}
		params[positional[pi]] = v
		pi++
	}
	if pi < len(positional) {
		return nil, fmt.Errorf("cleandb: statement has %d '?' placeholders, got %d positional arguments", len(positional), pi)
	}
	for k := range named {
		if _, ok := params[k]; !ok {
			return nil, fmt.Errorf("cleandb: parameter :%s is not bound", k)
		}
	}
	return params, nil
}

// toValue converts a Go value to a CleanDB Value. Signed and unsigned
// integers map to Int (unsigned ones overflow-checked), floats to Float,
// and time.Time binds as its RFC 3339 string — matching how the text
// formats represent timestamps — so typical Go callers don't trip over
// "unsupported argument type".
func toValue(a any) (types.Value, error) {
	switch v := a.(type) {
	case types.Value:
		return v, nil
	case nil:
		return types.Null(), nil
	case bool:
		return types.Bool(v), nil
	case int:
		return types.Int(int64(v)), nil
	case int32:
		return types.Int(int64(v)), nil
	case int64:
		return types.Int(v), nil
	case uint:
		if uint64(v) > math.MaxInt64 {
			return types.Null(), fmt.Errorf("uint value %d overflows int64", v)
		}
		return types.Int(int64(v)), nil
	case uint32:
		return types.Int(int64(v)), nil
	case uint64:
		if v > math.MaxInt64 {
			return types.Null(), fmt.Errorf("uint64 value %d overflows int64", v)
		}
		return types.Int(int64(v)), nil
	case float32:
		return types.Float(float64(v)), nil
	case float64:
		return types.Float(v), nil
	case string:
		return types.String(v), nil
	case time.Time:
		// RFC3339Nano keeps sub-second precision (and formats identically to
		// RFC3339 for whole-second stamps), so equality against stored
		// timestamp strings doesn't silently truncate.
		return types.String(v.Format(time.RFC3339Nano)), nil
	default:
		return types.Null(), fmt.Errorf("unsupported argument type %T", a)
	}
}
