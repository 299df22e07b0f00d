package source

import (
	"context"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// Colbin is a colbin (binary columnar) source. Its scan plan index-scans the
// header once to locate each column chunk's byte extent, decodes the columns
// on parallel goroutines, then assembles row ranges into partitions — also in
// parallel. Its header stores the row count, so Stats is exact without a
// scan, unlike any of the text formats.
type Colbin struct {
	src bytesAt
}

// NewColbinFile returns a lazy colbin source over a file path.
func NewColbinFile(path string) *Colbin { return &Colbin{src: bytesAt{path: path}} }

// ColbinBytes returns a colbin source over an in-memory buffer.
func ColbinBytes(buf []byte) *Colbin { return &Colbin{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *Colbin) Format() string { return "colbin" }

// Schema reads the column names from the header without decoding — or, for
// file-backed sources, even reading — the column data.
func (s *Colbin) Schema() ([]string, error) {
	names, _, err := s.header()
	return names, err
}

// Stats reads the exact row count from the header: colbin is the one format
// whose pending sources can answer Rows without a scan.
func (s *Colbin) Stats() (Stats, error) {
	_, rows, err := s.header()
	if err != nil {
		return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, err
	}
	return Stats{Rows: rows, Bytes: s.src.sizeBytes()}, nil
}

// header parses the colbin header from a bounded prefix of the input, so
// Stats/Schema on a huge pending file cost O(header), not O(file). A
// header longer than the prefix (half a million columns) fails the
// cursor's bounds checks, which Stats degrades to an unknown-rows hint.
func (s *Colbin) header() ([]string, int64, error) {
	buf, _, err := s.src.head(headPrefixBytes)
	if err != nil {
		return nil, 0, err
	}
	names, _, rows, err := data.ColbinHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	return names, rows, nil
}

func (s *Colbin) index() (*data.ColbinInfo, error) {
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	return data.IndexColbin(buf)
}

// Scan implements Source: the scan plan with every chunk built here.
func (s *Colbin) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	return scanLocal(ctx, s, parts)
}
