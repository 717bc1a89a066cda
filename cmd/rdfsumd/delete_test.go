package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// ntLine renders the serial-i triple exactly as ntBody does.
func ntLine(i int) string {
	return fmt.Sprintf("<http://x/s%d> <http://x/p%d> <http://x/o%d> .\n", i, i%5, i%11)
}

func deleteBody(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/n-triples")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

// TestDeleteTriplesEndpoint: DELETE /triples removes every stored copy of
// the posted triples, the removal is immediately invisible to queries,
// and absent triples are ignored.
func TestDeleteTriplesEndpoint(t *testing.T) {
	ts, srv := liveTestServer(t, nil)

	code, body := postBody(t, ts.URL+"/v1/triples", ntBody(0, 25))
	if code != http.StatusOK {
		t.Fatalf("ingest status = %d: %v", code, body)
	}

	// Remove the 5 triples carrying p1 (i%5==1: serials 1,6,11,16,21).
	var del strings.Builder
	for _, i := range []int{1, 6, 11, 16, 21} {
		del.WriteString(ntLine(i))
	}
	code, body = deleteBody(t, ts.URL+"/v1/triples", del.String())
	if code != http.StatusOK {
		t.Fatalf("delete status = %d: %v", code, body)
	}
	if body["removed"].(float64) != 5 || body["triples"].(float64) != 20 {
		t.Fatalf("delete response = %v, want removed 5, triples 20", body)
	}

	// The deletion is queryable immediately.
	code, qbody := postQuery(t, ts.URL+"/v1/query?prune=off",
		`SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`)
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if qbody["count"].(float64) != 0 {
		t.Fatalf("query count after delete = %v, want 0", qbody["count"])
	}

	// Deleting absent triples is a no-op that still publishes cleanly.
	code, body = deleteBody(t, ts.URL+"/v1/triples", del.String())
	if code != http.StatusOK || body["removed"].(float64) != 0 {
		t.Fatalf("re-delete = %d %v, want removed 0", code, body)
	}

	// Malformed N-Triples is rejected without state change.
	code, _ = deleteBody(t, ts.URL+"/v1/triples", "nonsense\n")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed delete status = %d, want 400", code)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["triples"].(float64) != 20 {
		t.Fatalf("stats triples = %v, want 20", stats["triples"])
	}
	if stats["deleted"].(float64) != 5 {
		t.Fatalf("stats deleted = %v, want 5", stats["deleted"])
	}

	// Compaction folds the tombstones away and the data stays gone.
	code, body = postBody(t, ts.URL+"/v1/compact", "")
	if code != http.StatusOK {
		t.Fatalf("compact status = %d: %v", code, body)
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["index_runs"].(float64) != 1 || stats["index_tombstones"].(float64) != 0 {
		t.Fatalf("post-compact index stats = %v, want 1 run / 0 tombstones", stats)
	}
	if got := srv.lv.Snapshot().Graph.NumEdges(); got != 20 {
		t.Fatalf("graph after compact has %d edges, want 20", got)
	}
}
