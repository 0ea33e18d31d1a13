package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// serveGet answers one GET for path through h.
func serveGet(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestRawQueryVariantsAnswerAsParsed is the raw-query index's differential
// test. Every text below is a variant of one route or ratio query. Each
// answer must equal what an emptied cache computes for that text, with
// only "cached" differing; texts that parse to one computation must share
// one answer; and hits and misses must count as if only the keyed index
// existed: a text's first ask is a keyed hit or miss, every later ask a
// hit.
func TestRawQueryVariantsAnswerAsParsed(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	a, b := net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name
	if !strings.Contains(a, " ") || !strings.Contains(b, " ") {
		t.Fatalf("PoPs %q and %q: the escape variants need names with spaces", a, b)
	}
	plus := "from=" + url.QueryEscape(a) + "&to=" + url.QueryEscape(b)
	pct := "from=" + url.PathEscape(a) + "&to=" + url.PathEscape(b)
	if plus == pct {
		t.Fatal("the + and % escapes render alike")
	}
	route := "/v1/route?network=Sprint&" + plus
	ratio := "/v1/ratio?network=Sprint"
	variants := []struct {
		path  string
		group string // texts of one group parse to one computation; "" for errors
	}{
		{route, "route"},
		{"/v1/route?" + plus + "&network=Sprint", "route"},
		{"/v1/route?network=Sprint&" + pct, "route"},
		{"/v1/route?network=%53print&" + plus, "route"},
		{route + "&from=Atlantis", "route"}, // a repeated parameter: the first counts
		{route + "&lambda_h=1e5", "route"},
		{route + "&lambda_h=100000&lambda_f=1e3", "route"},
		{route + "&explain=0", "route"},
		{route + "&explain=false", "route"},
		{route + "&utm_source=x", "route"},
		{route + "&a;b=c", "route"}, // url.Query drops a pair holding ';'
		{route + "&lambda_h=-0", "route-zero"},
		{route + "&lambda_h=0", "route-zero"},
		{route + "&lambda_h=0e9", "route-zero"},
		{"/v1/route?network=Sprint;x=y&" + plus, ""}, // the ';' pair held the network
		{route + "&lambda_h=-1", ""},
		{"/v1/route?network=Sprint&from=Atlantis&to=" + url.QueryEscape(b), ""},
		{ratio, "ratio"},
		{"/v1/ratio?lambda_f=1000&network=Sprint", "ratio"},
		{ratio + "&lambda_h=1e5", "ratio"},
		{ratio + "&explain=1", "ratio"},               // a ratio has no attribution
		{"/v1/ratio?network=Sprint&" + plus, "ratio"}, // a route's text, at the other endpoint
		{ratio + "&x;y", "ratio"},
		{ratio + "&lambda_h=-0", "ratio-zero"},
		{ratio + "&lambda_h=0", "ratio-zero"},
		{ratio + "&lambda_h=bogus", ""},
	}

	// What an emptied cache computes for each text.
	fresh := make([]*httptest.ResponseRecorder, len(variants))
	groupBody := map[string]string{}
	for i, v := range variants {
		s.cache.Reset()
		fresh[i] = serveGet(s.mux, v.path)
		switch {
		case v.group == "" && fresh[i].Code == http.StatusOK:
			t.Fatalf("%s: 200, want an error", v.path)
		case v.group == "":
		case fresh[i].Code != http.StatusOK || !bytes.HasSuffix(fresh[i].Body.Bytes(), []byte(cachedFalse)):
			t.Fatalf("%s on an empty cache: %d %s", v.path, fresh[i].Code, fresh[i].Body.Bytes())
		case groupBody[v.group] == "":
			groupBody[v.group] = fresh[i].Body.String()
		case fresh[i].Body.String() != groupBody[v.group]:
			t.Errorf("%s answers\n%s\nanother text of its query answers\n%s", v.path, fresh[i].Body.Bytes(), groupBody[v.group])
		}
	}

	s.cache.Reset()
	hits0, misses0 := s.CacheStats()
	rawHits0, _ := s.cache.raw.Stats()
	answered := 0
	seen := map[string]bool{}
	for pass := 1; pass <= 2; pass++ {
		for i, v := range variants {
			got := serveGet(s.mux, v.path)
			want := fresh[i].Body.String()
			if v.group != "" {
				answered++
				// The group's first text in the first pass computes; every
				// other ask is answered from a stored body.
				if pass > 1 || seen[v.group] {
					want = asHit(t, fresh[i].Body.Bytes())
				}
				seen[v.group] = true
			}
			if got.Code != fresh[i].Code || got.Body.String() != want {
				t.Errorf("pass %d, %s:\n%d %s\nwant\n%d %s", pass, v.path, got.Code, got.Body.Bytes(), fresh[i].Code, want)
			}
		}
		hits, misses := s.CacheStats()
		if wantMisses := uint64(len(groupBody)); misses-misses0 != wantMisses || hits-hits0 != uint64(answered)-wantMisses {
			t.Errorf("after pass %d: %d hits and %d misses, want %d and %d",
				pass, hits-hits0, misses-misses0, uint64(answered)-wantMisses, wantMisses)
		}
		if pass == 1 {
			rawHits, _ := s.cache.raw.Stats()
			rawHits0 = rawHits
		}
	}
	if rawHits, _ := s.cache.raw.Stats(); rawHits-rawHits0 != uint64(answered/2) {
		t.Errorf("second pass: %d raw-index hits, want one per answered text (%d)", rawHits-rawHits0, answered/2)
	}
}

// TestRawQueryIndexBounded: distinct texts of one hot query (a junk
// parameter each) fill the raw index only up to CacheSize, beside the one
// keyed entry they share, a text past maxRawQuery is never filed, and a
// swap empties both indexes.
func TestRawQueryIndexBounded(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	hot := routeURL(net.PoPs[1].Name, net.PoPs[2].Name)
	s.cache.Reset()
	size := s.cfg.CacheSize
	for i := 0; i < 3*size; i++ {
		if rec := serveGet(s.mux, hot+"&junk="+strconv.Itoa(i)); rec.Code != http.StatusOK {
			t.Fatalf("junk variant %d: %d %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if raw, keyed := s.cache.raw.Len(), s.cache.keyed.Len(); raw != size || keyed != 1 {
		t.Fatalf("after %d variants of one query: %d raw entries, %d keyed, want %d and 1", 3*size, raw, keyed, size)
	}
	// A text past maxRawQuery is answered, from the keyed index, and never
	// filed: a client cannot park long texts in the raw index.
	long := hot + "&junk=" + strings.Repeat("x", maxRawQuery)
	rawHits, _ := s.cache.raw.Stats()
	for i := 0; i < 2; i++ {
		if rec := serveGet(s.mux, long); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
			t.Fatalf("long variant: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	if h, _ := s.cache.raw.Stats(); h != rawHits {
		t.Fatalf("a text of %d bytes was answered from the raw index", len(long))
	}
	if rec := postAdvisory(s, sandyReplay(t).Advisories[0].Text()); rec.Code != http.StatusOK {
		t.Fatalf("advisory: %d %s", rec.Code, rec.Body.Bytes())
	}
	if raw, keyed := s.cache.raw.Len(), s.cache.keyed.Len(); raw != 0 || keyed != 0 {
		t.Fatalf("after a swap: %d raw entries, %d keyed, want none", raw, keyed)
	}
}

// TestExplainQueryBypassesBothIndexes: an explain=1 query is computed and
// explained on every ask, though its plain twin sits in both indexes, and
// it files no text in either.
func TestExplainQueryBypassesBothIndexes(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	plain := routeURL(net.PoPs[0].Name, net.PoPs[3].Name)
	explained := routeURL(net.PoPs[0].Name, net.PoPs[3].Name, "explain", "1")
	s.cache.Reset()
	for i := 0; i < 2; i++ {
		if rec := serveGet(s.mux, plain); rec.Code != http.StatusOK {
			t.Fatalf("plain route: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	raw, keyed := s.cache.raw.Len(), s.cache.keyed.Len()
	hits, misses := s.CacheStats()
	for i := 0; i < 2; i++ {
		rec := serveGet(s.mux, explained)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"explain": {`) ||
			!strings.Contains(rec.Body.String(), `"cached": false`) {
			t.Fatalf("explain ask %d: %d %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if r, k := s.cache.raw.Len(), s.cache.keyed.Len(); r != raw || k != keyed {
		t.Errorf("explain asks moved the indexes: raw %d → %d, keyed %d → %d", raw, r, keyed, k)
	}
	if h, m := s.CacheStats(); h != hits || m != misses {
		t.Errorf("explain asks counted %d hits and %d misses", h-hits, m-misses)
	}
}
