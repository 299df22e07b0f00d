package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cleandb"
	"cleandb/internal/source"
)

// itemsCSV is a small numeric source for the incremental endpoint tests:
// the DENIAL below pairs rows by price, so every append changes the answer.
const itemsCSV = `id,price
1,10
2,20
3,30
4,40
5,50
6,60
7,70
8,80
`

const itemsQuery = `SELECT * FROM items t1
DENIAL(t2, t1.price < t2.price)`

// incrServerPair mounts a server over a view-cached DB holding the items
// source.
func incrServerPair(t *testing.T) (*cleandb.DB, string) {
	t.Helper()
	db := cleandb.Open(cleandb.WithWorkers(2), cleandb.WithViewCache(4))
	db.RegisterSource("items", source.CSVBytes([]byte(itemsCSV)))
	_, ts := newTestServer(t, db, Config{})
	return db, ts.URL
}

// envelope runs the query through the JSON-envelope mode and decodes it.
func envelope(t *testing.T, base, query string) queryEnvelope {
	t.Helper()
	resp, err := http.Post(base+"/v1/query?include=repairs", "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var env queryEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// appendRows POSTs a payload to the append endpoint and returns the response.
func appendRows(t *testing.T, base, name, contentType, payload string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/sources/"+name+"/rows", contentType, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAppendRowsEndpoint(t *testing.T) {
	_, base := incrServerPair(t)

	// Cold, then exact: the first execution misses the view cache, the
	// repeat is answered verbatim.
	if env := envelope(t, base, itemsQuery); env.ViewHit != "" {
		t.Fatalf("first execution view_hit = %q, want cold", env.ViewHit)
	}
	warm := envelope(t, base, itemsQuery)
	if warm.ViewHit != "exact" {
		t.Fatalf("repeat view_hit = %q, want exact", warm.ViewHit)
	}

	// Append two rows over the wire and check the refreshed description.
	resp := appendRows(t, base, "items", "text/csv", "9,90\n10,100\n")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	var src sourceJSON
	if err := json.NewDecoder(resp.Body).Decode(&src); err != nil {
		t.Fatal(err)
	}
	if src.DeltaEpoch != 1 || src.Appends != 1 || src.AppendedRows != 2 {
		t.Fatalf("after append: delta_epoch=%d appends=%d appended_rows=%d, want 1/1/2",
			src.DeltaEpoch, src.Appends, src.AppendedRows)
	}
	if src.Rows != 10 {
		t.Fatalf("after append: rows=%d, want 10", src.Rows)
	}

	// The listing carries the same incremental state.
	lresp, err := http.Get(base + "/v1/sources")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listed []sourceJSON
	if err := json.NewDecoder(lresp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].DeltaEpoch != 1 || listed[0].AppendedRows != 2 {
		t.Fatalf("listing after append: %+v", listed)
	}

	// The re-query is served as view + delta pass, and matches a cold
	// execution over the full data.
	got := envelope(t, base, itemsQuery)
	if got.ViewHit != "delta" {
		t.Fatalf("post-append view_hit = %q, want delta", got.ViewHit)
	}
	coldDB := cleandb.Open(cleandb.WithWorkers(2))
	coldDB.RegisterSource("items", source.CSVBytes([]byte(itemsCSV+"9,90\n10,100\n")))
	want, err := coldDB.Query(itemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowCount != want.RowCount() {
		t.Fatalf("delta answered %d rows, cold %d", got.RowCount, want.RowCount())
	}

	// A JSONL append works against the same CSV source and moves the epoch
	// again.
	jresp := appendRows(t, base, "items", "application/x-ndjson", `{"id":11,"price":110}`+"\n")
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl append status %d", jresp.StatusCode)
	}
	if err := json.NewDecoder(jresp.Body).Decode(&src); err != nil {
		t.Fatal(err)
	}
	if src.DeltaEpoch != 2 || src.Appends != 2 || src.AppendedRows != 3 {
		t.Fatalf("after jsonl append: delta_epoch=%d appends=%d appended_rows=%d, want 2/2/3",
			src.DeltaEpoch, src.Appends, src.AppendedRows)
	}
}

func TestAppendRowsErrors(t *testing.T) {
	_, base := incrServerPair(t)

	for _, tc := range []struct {
		name, source, contentType, payload string
		want                               int
	}{
		{"unknown source", "nosuch", "text/csv", "1,2\n", http.StatusNotFound},
		{"unsupported content type", "items", "application/xml", "<r/>", http.StatusUnsupportedMediaType},
		{"empty payload", "items", "text/csv", "", http.StatusBadRequest},
		{"malformed jsonl", "items", "application/x-ndjson", "{not json}\n", http.StatusBadRequest},
	} {
		resp := appendRows(t, base, tc.source, tc.contentType, tc.payload)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestViewCacheMetricsAndTrailer(t *testing.T) {
	_, base := incrServerPair(t)

	envelope(t, base, itemsQuery) // cold (miss)
	envelope(t, base, itemsQuery) // exact
	resp := appendRows(t, base, "items", "text/csv", "9,90\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	envelope(t, base, itemsQuery) // delta

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"cleandb_view_cache_hits_total 1",
		"cleandb_view_cache_delta_hits_total 1",
		"cleandb_view_cache_misses_total 1",
		"cleandb_view_cache_entries 1",
		`cleandb_source_appends_total{source="items"} 1`,
		`cleandb_source_appended_rows_total{source="items"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The streaming path reports the view outcome as a trailer. The view was
	// just refreshed by the delta pass, so these executions are exact hits.
	// The row-count trailer is the rows this response streamed — the cached
	// result is shared by both exporters and by the envelope calls that
	// stored it, none of which may leak their count into another's trailer.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sresp, err := http.Post(base+"/v1/query", "text/plain", strings.NewReader(itemsQuery))
			if err != nil {
				t.Error(err)
				return
			}
			defer sresp.Body.Close()
			lines, err := countLines(sresp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if hit := sresp.Trailer.Get(trailerViewHit); hit != "exact" {
				t.Errorf("streaming trailer %s = %q, want exact", trailerViewHit, hit)
			}
			if got := sresp.Trailer.Get(trailerRows); lines == 0 || got != strconv.Itoa(lines) {
				t.Errorf("streaming trailer %s = %q, body has %d lines", trailerRows, got, lines)
			}
		}()
	}
	wg.Wait()
}
