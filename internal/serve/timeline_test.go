package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/obs"
	"riskroute/internal/resilience"
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

// TestSwapTelemetryIsOneRecord pins what an advisory swap leaves in the
// run's telemetry: no span and no health event, however many networks it
// reprices, while boot keeps its per-network build spans and events. The
// swap timeline, serve.swaps_total and the swap log line record each swap.
// Build timings still reach the registry: one positive observation per
// network per swap. After 50 swaps the root trace holds exactly the spans
// boot left.
func TestSwapTelemetryIsOneRecord(t *testing.T) {
	reg := obs.NewRegistry()
	trace := obs.NewTrace("riskrouted")
	health := resilience.NewHealth()
	health.AttachMetrics(reg)
	s, err := New(Config{
		Networks: []*topology.Network{
			datasets.NetworkByName("Sprint"), datasets.NetworkByName("Abilene")},
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		Metrics:    reg,
		Trace:      trace,
		Health:     health,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	const nets, swaps = 2, 50
	var spans func(ss obs.SpanSnapshot, depth int) []string
	spans = func(ss obs.SpanSnapshot, depth int) []string {
		out := []string{strings.Repeat(" ", depth) + ss.Name}
		for _, c := range ss.Children {
			out = append(out, spans(c, depth+1)...)
		}
		return out
	}
	engineEvents := func() (n int) {
		for _, e := range health.Events() {
			if e.Stage == "engine" {
				n++
			}
		}
		return n
	}
	boot := trace.Snapshot()
	bootSpans := spans(boot, 0)
	if stage := boot.Find("serve-warmup").Find("engine-build"); stage == nil || len(stage.Children) != nets {
		t.Fatalf("boot engine-build stage = %+v, want %d engine-build spans", stage, nets)
	}
	if got := engineEvents(); got != nets {
		t.Fatalf("boot recorded %d engine health events, want %d", got, nets)
	}
	builds := reg.Histogram("core.engine.build_seconds", obs.LatencyBuckets())
	events, count, sum := len(health.Events()), builds.Count(), builds.Sum()

	advs := sandyReplay(t).Advisories
	for k := range swaps {
		if _, _, err := s.ApplyAdvisory(advs[k%len(advs)].Text()); err != nil {
			t.Fatalf("swap %d: %v", k, err)
		}
		if got := len(health.Events()) - events; got != 0 {
			t.Errorf("swap %d added %d health events, want 0", k, got)
		}
		if got := builds.Count() - count; got != nets {
			t.Errorf("swap %d added %d build observations, want %d", k, got, nets)
		}
		if !(builds.Sum() > sum) {
			t.Errorf("swap %d: build_seconds sum %v did not grow from %v", k, builds.Sum(), sum)
		}
		count, sum = builds.Count(), builds.Sum()
	}
	if got := spans(trace.Snapshot(), 0); !reflect.DeepEqual(got, bootSpans) {
		t.Errorf("after %d swaps the trace holds\n%s\nwant boot's\n%s",
			swaps, strings.Join(got, "\n"), strings.Join(bootSpans, "\n"))
	}
	if got := reg.Counter("serve.swaps_total").Value(); got != swaps {
		t.Errorf("serve.swaps_total = %d, want %d", got, swaps)
	}
	if got := len(s.Timeline()); got != 1+swaps {
		t.Errorf("timeline holds %d events, want %d", got, 1+swaps)
	}
	if got := engineEvents(); got != nets {
		t.Errorf("engine health events now %d, want boot's %d", got, nets)
	}
}

// TestGenerationOneServesUntraced pins that generation 1 serves engines
// without boot's trace or health, as every later generation does: 100
// explained routes and ratio misses at generation 1 leave the run's span
// tree and health events as boot left them, boot's per-network
// engine-build spans included.
func TestGenerationOneServesUntraced(t *testing.T) {
	trace := obs.NewTrace("riskrouted")
	health := resilience.NewHealth()
	nets := []*topology.Network{datasets.NetworkByName("Sprint"), datasets.NetworkByName("Abilene")}
	s, err := New(Config{
		Networks:   nets,
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		CacheSize:  -1, // every ratio read misses and evaluates
		Trace:      trace,
		Health:     health,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	var count func(obs.SpanSnapshot) int
	count = func(sp obs.SpanSnapshot) int {
		n := 1
		for _, c := range sp.Children {
			n += count(c)
		}
		return n
	}
	spans, events := count(trace.Snapshot()), len(health.Events())
	for k := 0; k < 100; k++ {
		net := nets[k%2]
		q := url.Values{"network": {net.Name}}
		path := "/v1/ratio?"
		if k%4 < 2 {
			q.Set("from", net.PoPs[k%len(net.PoPs)].Name)
			q.Set("to", net.PoPs[len(net.PoPs)-1-k%3].Name)
			q.Set("explain", "1")
			path = "/v1/route?"
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+q.Encode(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s%s: %d %s", path, q.Encode(), rec.Code, rec.Body.Bytes())
		}
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation %d, want 1", g)
	}
	if got := count(trace.Snapshot()); got != spans {
		t.Errorf("requests at generation 1 took the trace from %d spans to %d", spans, got)
	}
	if got := len(health.Events()); got != events {
		t.Errorf("requests at generation 1 took health from %d events to %d", events, got)
	}
	snap := trace.Snapshot()
	if build := snap.Find("serve-warmup").Find("engine-build"); build == nil || len(build.Children) != len(nets) {
		t.Fatal("boot's engine-build stage does not hold one span per network")
	}
}
