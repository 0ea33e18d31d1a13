package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/topology"
)

// TestTimelineRingBasics pins the server's swap timeline bound: it keeps
// the newest timelineSize events, oldest first, so the startup event ages
// out once enough generations are published. It fills its own server's
// timeline, leaving the shared test server untouched.
func TestTimelineRingBasics(t *testing.T) {
	s, err := New(Config{
		Networks:   []*topology.Network{datasets.NetworkByName("Sprint")},
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if evs := s.Timeline(); len(evs) != 1 || evs[0].Generation != 1 {
		t.Fatalf("fresh server timeline = %+v, want the startup event alone", evs)
	}
	for g := uint64(2); g <= timelineSize+2; g++ {
		s.timeline.Add(SwapEvent{Generation: g})
	}
	evs := s.Timeline()
	if len(evs) != timelineSize {
		t.Fatalf("timeline holds %d events, want %d", len(evs), timelineSize)
	}
	if evs[0].Generation != 3 || evs[len(evs)-1].Generation != timelineSize+2 {
		t.Fatalf("timeline spans generations %d..%d, want 3..%d oldest first",
			evs[0].Generation, evs[len(evs)-1].Generation, timelineSize+2)
	}
}

// TestGenerationsEndpoint pins the swap timeline end to end: startup event,
// a forward swap with its parse/rebuild/swap breakdown, and a rollback
// event, all visible at /v1/generations.
func TestGenerationsEndpoint(t *testing.T) {
	s := testServer(t)

	evs := s.Timeline()
	if len(evs) == 0 || evs[0].Generation != 1 {
		t.Fatalf("startup event missing: %+v", evs)
	}
	if evs[0].RebuildSeconds <= 0 {
		t.Fatalf("startup rebuild duration not recorded: %+v", evs[0])
	}

	// Forward swap through the HTTP surface, so ParseSeconds is measured.
	adv := sandyReplay(t).Advisories[3]
	rec := getTraced(t, s, http.MethodPost, "/v1/advisory", strings.NewReader(adv.Text()))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST advisory: %d: %s", rec.Code, rec.Body.Bytes())
	}
	gen := s.Generation()

	var doc struct {
		Generation uint64      `json:"generation"`
		Events     []SwapEvent `json:"events"`
	}
	page := getTraced(t, s, http.MethodGet, "/v1/generations", nil)
	if page.Code != http.StatusOK {
		t.Fatalf("/v1/generations: %d", page.Code)
	}
	if err := json.Unmarshal(page.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Generation != gen {
		t.Fatalf("document generation %d, server at %d", doc.Generation, gen)
	}
	var swap *SwapEvent
	for i := range doc.Events {
		if doc.Events[i].Generation == gen {
			swap = &doc.Events[i]
		}
	}
	if swap == nil {
		t.Fatalf("no event for generation %d in %+v", gen, doc.Events)
	}
	if swap.Storm != "SANDY" || swap.Advisory != adv.Number || swap.Rollback {
		t.Fatalf("swap event: %+v", swap)
	}
	if swap.ParseSeconds <= 0 || swap.RebuildSeconds <= 0 || swap.SwapSeconds < swap.RebuildSeconds {
		t.Fatalf("stage durations implausible: %+v", swap)
	}

	// Rollback publishes its own timeline event.
	reverted, err := s.RevertAdvisory(gen)
	if err != nil {
		t.Fatalf("revert: %v", err)
	}
	evs = s.Timeline()
	last := evs[len(evs)-1]
	if last.Generation != reverted || !last.Rollback {
		t.Fatalf("rollback event: %+v (want generation %d, rollback=true)", last, reverted)
	}
}
