package source

import (
	"context"
	"sync/atomic"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// BatchScanner is the optional columnar capability of a Source: scan the
// input directly into column batches, skipping the boxed row form entirely.
// Colbin implements it natively — its chunks are already columns, so the
// row transpose Scan performs is pure waste. Text formats go through
// ScanIntoBatches, which converts their row partitions in parallel.
type BatchScanner interface {
	// ScanBatches parses the source into at most parts ordered batches
	// sharing one dictionary. Row i of the concatenated batches equals row
	// i of the concatenated Scan partitions. A nil batch slice with a nil
	// error means the source cannot batch (the caller falls back to Scan).
	ScanBatches(ctx context.Context, parts int) ([]*data.ColumnBatch, error)
}

// ScanIntoBatches scans a source in columnar form. It prefers the source's
// native BatchScanner; otherwise it scans rows and converts each partition
// to a batch on parallel goroutines, merging the per-partition dictionaries
// into one per-source dictionary.
//
// It returns batches when the source could batch, and rows when the row
// form exists anyway (text formats — callers keep them so nothing is
// re-materialized) or when batching is impossible (heterogeneous records).
// At least one of batches and rows is non-nil on success.
func ScanIntoBatches(ctx context.Context, s Source, parts int) ([]*data.ColumnBatch, [][]types.Value, error) {
	if bs, ok := s.(BatchScanner); ok {
		batches, err := bs.ScanBatches(ctx, parts)
		if err != nil {
			return nil, nil, err
		}
		if batches != nil {
			return batches, nil, nil
		}
	}
	rows, err := s.Scan(ctx, parts)
	if err != nil {
		return nil, nil, err
	}
	batches, err := RowsToBatches(ctx, rows, parts)
	if err != nil {
		return nil, nil, err
	}
	return batches, rows, nil
}

// RowsToBatches converts row partitions to batches: per-partition
// dictionaries are built lock-free in parallel, then remapped into one
// shared per-source dictionary with one interning per distinct string. It
// returns nil (no error) when any partition cannot batch — rows that are
// not records sharing one schema stay rows.
func RowsToBatches(ctx context.Context, parts [][]types.Value, width int) ([]*data.ColumnBatch, error) {
	if len(parts) == 0 {
		return nil, nil
	}
	shared := data.NewDict()
	batches := make([]*data.ColumnBatch, len(parts))
	var failed atomic.Bool
	err := runParallel(ctx, len(parts), width, func(i int) error {
		b := data.BatchFromRows(parts[i], data.NewDict())
		if b == nil {
			failed.Store(true)
			return nil
		}
		b.RemapDict(shared)
		batches[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	if failed.Load() {
		return nil, nil
	}
	return batches, nil
}

// ScanBatches implements BatchScanner: column chunks decode concurrently
// straight into typed vectors (string chunks remap their on-disk
// dictionaries into the per-source dictionary), then partitions are
// zero-copy slices of the decoded columns — no transpose, no boxing.
func (s *Colbin) ScanBatches(ctx context.Context, parts int) ([]*data.ColumnBatch, error) {
	info, err := s.index()
	if err != nil {
		return nil, err
	}
	dict := data.NewDict()
	schema := types.NewSchema(info.Names...)
	if info.Rows == 0 {
		return []*data.ColumnBatch{{Schema: schema, Dict: dict}}, nil
	}
	ncols := len(info.Names)
	cols := make([]data.Column, ncols)
	err = runParallel(ctx, ncols, parts, func(c int) error {
		col, err := info.DecodeColumnVec(c, dict)
		if err != nil {
			return err
		}
		cols[c] = col
		return nil
	})
	if err != nil {
		return nil, err
	}
	full := &data.ColumnBatch{Schema: schema, Dict: dict, Cols: cols, N: info.Rows}
	// The scan plan's row ranges, so both forms partition identically.
	per, nparts := rowRanges(info.Rows, parts)
	out := make([]*data.ColumnBatch, nparts)
	for p := range out {
		lo := p * per
		hi := lo + per
		if hi > info.Rows {
			hi = info.Rows
		}
		out[p] = full.Slice(lo, hi)
	}
	return out, nil
}
