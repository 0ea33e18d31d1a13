package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"riskroute/internal/core"
	"riskroute/internal/forecast"
	"riskroute/internal/risk"
)

// TestRouteSwapHammer drives /v1/route from many goroutines while a writer
// streams advisories through POST /v1/advisory, then verifies the
// consistency contract: every response carries a generation the server
// actually published, every response is internally consistent with exactly
// one snapshot (a route priced at generation g always reports g's storm
// annotation), and every cost is bit-identical to a single-threaded replay
// of the same (generation, pair) query on a freshly built engine.
//
// Run with -race: the test exists to catch snapshot-swap data races, not
// just wrong answers.
func TestRouteSwapHammer(t *testing.T) {
	s := testServer(t)
	replay := sandyReplay(t)
	net := s.bases[0].net

	// Fixed pair set so the replay stage is bounded.
	var pairs [][2]string
	n := len(net.PoPs)
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]string{net.PoPs[i].Name, net.PoPs[n-1-i].Name})
	}

	// Generation → advisory that produced it. The hammer starts from
	// whatever generation earlier tests left behind.
	startSnap := s.snap.Load()
	advByGen := sync.Map{} // uint64 → *forecast.Advisory (nil for no storm)
	advByGen.Store(startSnap.gen, startSnap.advisory)

	const readers = 8
	const swaps = 6
	type observation struct {
		gen  uint64
		pair int
		resp routeResponse
	}
	var (
		mu  sync.Mutex
		obs []observation
	)
	done := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := (id + i) % len(pairs)
				req := httptest.NewRequest(http.MethodGet, routeURL(pairs[p][0], pairs[p][1]), nil)
				rec := httptest.NewRecorder()
				s.mux.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: route %d: %s", id, rec.Code, rec.Body.Bytes())
					return
				}
				var resp routeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				mu.Lock()
				obs = append(obs, observation{gen: resp.Generation, pair: p, resp: resp})
				mu.Unlock()
			}
		}(r)
	}

	// Writer: stream advisories through the HTTP surface, recording which
	// advisory produced which generation.
	for i := 0; i < swaps; i++ {
		adv := replay.Advisories[(i*3)%len(replay.Advisories)]
		req := httptest.NewRequest(http.MethodPost, "/v1/advisory", strings.NewReader(adv.Text()))
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("swap %d: %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		var info advisoryInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		advByGen.Store(info.Generation, adv)
		time.Sleep(2 * time.Millisecond) // let readers interleave between swaps
	}
	close(done)
	wg.Wait()
	finalGen := s.Generation()
	if finalGen != startSnap.gen+swaps {
		t.Fatalf("final generation %d, want %d", finalGen, startSnap.gen+swaps)
	}

	// Single-threaded replay: rebuild a fresh engine per observed
	// (generation, pair) and require bit-identical costs.
	type expectation struct {
		shortest, riskroute core.PairResult
	}
	expected := map[[2]uint64]expectation{} // (gen, pair) → costs
	engines := map[uint64]*core.Engine{}
	replayEngine := func(gen uint64) *core.Engine {
		if eng, ok := engines[gen]; ok {
			return eng
		}
		v, ok := advByGen.Load(gen)
		if !ok {
			t.Fatalf("response reported generation %d the writer never published", gen)
		}
		base := s.bases[0]
		var fc []float64
		if v != nil {
			if adv, _ := v.(*forecast.Advisory); adv != nil {
				fc = s.rm.PoPRisks(adv, base.net)
			}
		}
		eng, err := core.New(&risk.Context{
			Net: base.net, Hist: base.hist, Forecast: fc,
			Fractions: base.fractions, Params: s.cfg.Params,
		}, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("replay engine for generation %d: %v", gen, err)
		}
		engines[gen] = eng
		return eng
	}

	checked := 0
	gens := map[uint64]bool{}
	for _, o := range obs {
		if o.gen < startSnap.gen || o.gen > finalGen {
			t.Fatalf("observed generation %d outside [%d, %d]", o.gen, startSnap.gen, finalGen)
		}
		gens[o.gen] = true
		key := [2]uint64{o.gen, uint64(o.pair)}
		want, ok := expected[key]
		if !ok {
			eng := replayEngine(o.gen)
			src := s.bases[0].net.PoPIndex(pairs[o.pair][0])
			dst := s.bases[0].net.PoPIndex(pairs[o.pair][1])
			want = expectation{
				shortest:  eng.ShortestPair(src, dst),
				riskroute: eng.RiskRoutePair(src, dst),
			}
			expected[key] = want
		}
		if o.resp.Shortest.BitRiskMiles != want.shortest.BitRiskMiles ||
			o.resp.Shortest.Miles != want.shortest.Miles ||
			o.resp.RiskRoute.BitRiskMiles != want.riskroute.BitRiskMiles ||
			o.resp.RiskRoute.Miles != want.riskroute.Miles {
			t.Fatalf("generation %d pair %v: served costs diverge from single-threaded replay:\nserved  %+v / %+v\nreplay  %+v / %+v",
				o.gen, pairs[o.pair], o.resp.Shortest, o.resp.RiskRoute, want.shortest, want.riskroute)
		}
		// Snapshot consistency: storm annotation matches the generation's
		// advisory, never a neighbouring generation's.
		if v, _ := advByGen.Load(o.gen); v != nil {
			if adv, _ := v.(*forecast.Advisory); adv != nil {
				if o.resp.Storm != adv.Storm || o.resp.Advisory != adv.Number {
					t.Fatalf("generation %d served storm %q advisory %d, want %q %d",
						o.gen, o.resp.Storm, o.resp.Advisory, adv.Storm, adv.Number)
				}
			} else if o.resp.Storm != "" {
				t.Fatalf("generation %d served storm %q, want none", o.gen, o.resp.Storm)
			}
		} else if o.resp.Storm != "" {
			t.Fatalf("generation %d served storm %q, want none", o.gen, o.resp.Storm)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("hammer recorded no observations")
	}
	t.Logf("verified %d responses across %d generations against single-threaded replay", checked, len(gens))
}
