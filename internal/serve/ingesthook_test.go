package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestIngestEndpoint pins /v1/ingest's two shapes: a clear 404 when no
// poller is attached, and the attached poller's status document verbatim.
func TestIngestEndpoint(t *testing.T) {
	s := &Server{}

	rec := httptest.NewRecorder()
	s.statusHandler(s.ingestDoc)(rec, httptest.NewRequest(http.MethodGet, "/v1/ingest", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unattached: %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "-advisory-feed") {
		t.Fatalf("unattached error does not point at the flags: %s", rec.Body.String())
	}

	s.AttachIngest(func() any {
		return map[string]any{"breaker": "closed", "accepted": 7}
	})
	rec = httptest.NewRecorder()
	s.statusHandler(s.ingestDoc)(rec, httptest.NewRequest(http.MethodGet, "/v1/ingest", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("attached: %d, want 200", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc["breaker"] != "closed" || doc["accepted"] != float64(7) {
		t.Fatalf("status document mangled: %v", doc)
	}
}

// TestRevertAdvisory pins the rollback half of the ingestion swap hook:
// reverting republishes the pre-swap world under a FRESH generation (never
// a rewind), restores route answers exactly, and refuses both double
// reverts and reverts of a generation that is no longer current.
func TestRevertAdvisory(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)

	g0 := s.Generation()
	prevAdv := s.snap.Load().advisory
	var before routeResponse
	if code := get(t, s, path, &before); code != http.StatusOK {
		t.Fatalf("pre-apply route: %d", code)
	}

	adv := sandyReplay(t).Advisories[7]
	g1, err := s.ApplyParsed(adv, 0)
	if err != nil {
		t.Fatalf("ApplyParsed: %v", err)
	}
	if g1 != g0+1 {
		t.Fatalf("apply produced generation %d from %d", g1, g0)
	}

	// A stale generation cannot be reverted.
	if _, err := s.RevertAdvisory(g1 + 100); err == nil || !strings.Contains(err.Error(), "now serving") {
		t.Fatalf("stale revert: %v", err)
	}

	g2, err := s.RevertAdvisory(g1)
	if err != nil {
		t.Fatalf("RevertAdvisory: %v", err)
	}
	if g2 != g1+1 {
		t.Fatalf("revert produced generation %d from %d — must be fresh, not a rewind", g2, g1)
	}
	if got := s.snap.Load().advisory; got != prevAdv {
		t.Fatalf("revert did not restore the prior advisory (%p != %p)", got, prevAdv)
	}

	// Route answers return to the pre-apply world (only the generation and
	// cache flag may differ).
	var after routeResponse
	if code := get(t, s, path, &after); code != http.StatusOK {
		t.Fatalf("post-revert route: %d", code)
	}
	if after.Generation != g2 {
		t.Fatalf("post-revert response carries generation %d, want %d", after.Generation, g2)
	}
	before.Generation, after.Generation = 0, 0
	before.Cached, after.Cached = false, false
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if string(bj) != string(aj) {
		t.Fatalf("route answer diverged after revert:\n  before: %s\n  after:  %s", bj, aj)
	}

	// A revert consumed the retained snapshot: a second one must refuse.
	if _, err := s.RevertAdvisory(g2); err == nil || !strings.Contains(err.Error(), "no prior snapshot") {
		t.Fatalf("double revert: %v", err)
	}
}
