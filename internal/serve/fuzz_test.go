package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzAdvisoryIngest throws arbitrary bytes at POST /v1/advisory — the one
// endpoint that feeds untrusted network input into the NLP parser and the
// snapshot-swap machinery. Invariants: the handler never panics, answers
// only 200 (parsed and swapped), 400 (rejected), or 413 (oversized), and
// the generation counter moves forward exactly on success, never backward.
func FuzzAdvisoryIngest(f *testing.F) {
	s := testServer(f)
	replay := sandyReplay(f)
	valid := replay.Advisories[0].Text()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                   // truncated
	f.Add(strings.Replace(valid, "LATITUDE", "LATITUDE JUNK", 1)) // corrupted field
	f.Add("")                                                     // empty
	f.Add("BULLETIN\nHURRICANE X ADVISORY NUMBER ONE\n")          // non-numeric

	f.Fuzz(func(t *testing.T, body string) {
		before := s.Generation()
		req := httptest.NewRequest(http.MethodPost, "/v1/advisory", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)

		after := s.Generation()
		switch rec.Code {
		case http.StatusOK:
			if after <= before {
				t.Fatalf("200 response but generation %d -> %d", before, after)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if after < before {
				t.Fatalf("generation moved backward: %d -> %d", before, after)
			}
		default:
			t.Fatalf("status %d for fuzzed advisory (want 200, 400, or 413): %s",
				rec.Code, rec.Body.Bytes())
		}
	})
}
