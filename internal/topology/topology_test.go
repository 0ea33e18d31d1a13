package topology

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"riskroute/internal/geo"
)

// testNet builds a small valid network: Houston - Dallas - Chicago - Boston
// with an extra Houston-Chicago link.
func testNet() *Network {
	return &Network{
		Name: "TestNet",
		Tier: Tier1,
		PoPs: []PoP{
			{Name: "Houston, TX", Location: geo.Point{Lat: 29.7604, Lon: -95.3698}, State: "TX"},
			{Name: "Dallas, TX", Location: geo.Point{Lat: 32.7767, Lon: -96.7970}, State: "TX"},
			{Name: "Chicago, IL", Location: geo.Point{Lat: 41.8781, Lon: -87.6298}, State: "IL"},
			{Name: "Boston, MA", Location: geo.Point{Lat: 42.3601, Lon: -71.0589}, State: "MA"},
		},
		Links: []Link{{0, 1}, {1, 2}, {2, 3}, {0, 2}},
	}
}

func TestValidateAcceptsGoodNetwork(t *testing.T) {
	if err := testNet().Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Network)
		want   string
	}{
		{"no name", func(n *Network) { n.Name = "" }, "no name"},
		{"no pops", func(n *Network) { n.PoPs = nil; n.Links = nil }, "no PoPs"},
		{"dup pop", func(n *Network) { n.PoPs[1].Name = n.PoPs[0].Name }, "duplicate PoP"},
		{"bad location", func(n *Network) { n.PoPs[0].Location.Lat = 99 }, "invalid location"},
		{"link range", func(n *Network) { n.Links[0].B = 17 }, "out of range"},
		{"self loop", func(n *Network) { n.Links[0].B = n.Links[0].A }, "self-loop"},
		{"dup link", func(n *Network) { n.Links = append(n.Links, Link{1, 0}) }, "duplicate link"},
		{"disconnected", func(n *Network) { n.Links = n.Links[:1] }, "not connected"},
		{"empty pop name", func(n *Network) { n.PoPs[2].Name = "" }, "has no name"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := testNet()
			tt.mutate(n)
			err := n.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	n := testNet()
	if !n.HasLink(0, 1) || !n.HasLink(1, 0) {
		t.Error("HasLink should be symmetric")
	}
	if n.HasLink(0, 3) {
		t.Error("HasLink false positive")
	}
	if got := n.PoPIndex("Chicago, IL"); got != 2 {
		t.Errorf("PoPIndex = %d, want 2", got)
	}
	if got := n.PoPIndex("Nowhere"); got != -1 {
		t.Errorf("PoPIndex missing = %d, want -1", got)
	}
	states := n.States()
	if len(states) != 3 || states[0] != "IL" || states[1] != "MA" || states[2] != "TX" {
		t.Errorf("States = %v", states)
	}
	if got := n.AverageOutdegree(); got != 2 {
		t.Errorf("AverageOutdegree = %v, want 2 (4 links, 4 pops)", got)
	}
	// Footprint is the Houston-Boston distance, the farthest pair.
	fp := n.GeographicFootprint()
	hb := geo.Distance(n.PoPs[0].Location, n.PoPs[3].Location)
	if math.Abs(fp-hb) > 1e-9 {
		t.Errorf("footprint = %v, want %v", fp, hb)
	}
}

func TestLinkMilesAndGraph(t *testing.T) {
	n := testNet()
	want := geo.Distance(n.PoPs[0].Location, n.PoPs[1].Location)
	if got := n.LinkMiles(n.Links[0]); math.Abs(got-want) > 1e-9 {
		t.Errorf("LinkMiles = %v, want %v", got, want)
	}
	g := n.Graph()
	if g.N() != 4 || g.M() != 4 {
		t.Errorf("graph N=%d M=%d", g.N(), g.M())
	}
	// Shortest Houston->Boston goes via the direct Houston-Chicago link.
	path, _ := g.ShortestPath(0, 3)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("shortest path = %v, want [0 2 3]", path)
	}
}

func TestCloneAndAddLink(t *testing.T) {
	n := testNet()
	c := n.Clone()
	if err := c.AddLink(0, 3); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if n.HasLink(0, 3) {
		t.Error("AddLink on clone affected original")
	}
	if err := c.AddLink(0, 3); err == nil {
		t.Error("duplicate AddLink should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddLink self-loop should panic")
		}
	}()
	c.AddLink(1, 1)
}

func TestTierString(t *testing.T) {
	if Tier1.String() != "tier1" || Regional.String() != "regional" {
		t.Error("tier names wrong")
	}
	if got := Tier(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown tier string = %q", got)
	}
}

func TestNativeFormatRoundTrip(t *testing.T) {
	nets := []*Network{testNet(), {
		Name: "Mini",
		Tier: Regional,
		PoPs: []PoP{
			{Name: "A", Location: geo.Point{Lat: 30, Lon: -90}, State: "LA"},
			{Name: "B", Location: geo.Point{Lat: 31, Lon: -91}, State: "MS"},
		},
		Links: []Link{{0, 1}},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, nets); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d networks, want 2", len(got))
	}
	for i, n := range got {
		orig := nets[i]
		if n.Name != orig.Name || n.Tier != orig.Tier {
			t.Errorf("network %d header mismatch: %s/%s", i, n.Name, n.Tier)
		}
		if len(n.PoPs) != len(orig.PoPs) || len(n.Links) != len(orig.Links) {
			t.Errorf("network %d size mismatch", i)
		}
		for j, p := range n.PoPs {
			if p.Name != orig.PoPs[j].Name || p.State != orig.PoPs[j].State {
				t.Errorf("pop %d mismatch: %+v", j, p)
			}
			if geo.Distance(p.Location, orig.PoPs[j].Location) > 0.01 {
				t.Errorf("pop %d location drifted", j)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
		want  string
	}{
		{"pop before network", "pop|A|1|2|TX", "pop before network"},
		{"bad tier", "network|X|tier9", "unknown tier"},
		{"bad lat", "network|X|tier1\npop|A|abc|2|TX", "bad latitude"},
		{"bad lon", "network|X|tier1\npop|A|1|xyz|TX", "bad longitude"},
		{"unknown directive", "network|X|tier1\nfoo|bar", "unknown directive"},
		{"link unknown pop", "network|X|tier1\npop|A|1|2|TX\nlink|A|B", "unknown pop"},
		{"dup pop", "network|X|tier1\npop|A|1|2|TX\npop|A|3|4|TX", "duplicate pop"},
		{"short network", "network|X", "network takes"},
		{"short pop", "network|X|tier1\npop|A|1", "pop takes"},
		{"short link", "network|X|tier1\npop|A|1|2|TX\nlink|A", "link takes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.input))
			if err == nil {
				t.Fatal("expected parse error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	input := `
# a comment
network|X|tier1

pop|A|30|-90|LA
pop|B|31|-91|MS
# another comment
link|A|B
`
	nets, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(nets) != 1 || len(nets[0].PoPs) != 2 || len(nets[0].Links) != 1 {
		t.Errorf("parsed %+v", nets)
	}
}

func TestGraphMLRoundTrip(t *testing.T) {
	n := testNet()
	var buf bytes.Buffer
	if err := WriteGraphML(&buf, n); err != nil {
		t.Fatalf("WriteGraphML: %v", err)
	}
	got, err := ParseGraphML(&buf, n.Name, n.Tier)
	if err != nil {
		t.Fatalf("ParseGraphML: %v", err)
	}
	if got.Name != n.Name || len(got.PoPs) != len(n.PoPs) || len(got.Links) != len(n.Links) {
		t.Fatalf("round trip mismatch: %d pops %d links", len(got.PoPs), len(got.Links))
	}
	for i, p := range got.PoPs {
		if p.Name != n.PoPs[i].Name {
			t.Errorf("pop %d name %q, want %q", i, p.Name, n.PoPs[i].Name)
		}
		if geo.Distance(p.Location, n.PoPs[i].Location) > 0.01 {
			t.Errorf("pop %d location drifted", i)
		}
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped network invalid: %v", err)
	}
}

func TestParseGraphMLZooStyle(t *testing.T) {
	// A fragment in the style Topology Zoo actually publishes, including a
	// node with no coordinates (external peer) and a duplicate edge.
	doc := `<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="d32"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d29"/>
  <key attr.name="Latitude" attr.type="double" for="node" id="d33"/>
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d32">Seattle</data>
      <data key="d33">47.60621</data>
      <data key="d29">-122.33207</data>
    </node>
    <node id="1">
      <data key="d32">Denver</data>
      <data key="d33">39.73915</data>
      <data key="d29">-104.9847</data>
    </node>
    <node id="2">
      <data key="d32">External Peer</data>
    </node>
    <edge source="0" target="1"/>
    <edge source="1" target="0"/>
    <edge source="0" target="2"/>
  </graph>
</graphml>`
	n, err := ParseGraphML(strings.NewReader(doc), "Zoo", Tier1)
	if err != nil {
		t.Fatalf("ParseGraphML: %v", err)
	}
	if len(n.PoPs) != 2 {
		t.Fatalf("got %d pops, want 2 (placeholder dropped)", len(n.PoPs))
	}
	if len(n.Links) != 1 {
		t.Errorf("got %d links, want 1 (duplicate and dangling dropped)", len(n.Links))
	}
	if n.PoPs[0].Name != "Seattle" {
		t.Errorf("pop name = %q", n.PoPs[0].Name)
	}
}

func TestParseGraphMLMissingKeys(t *testing.T) {
	doc := `<graphml><key attr.name="label" for="node" id="d1"/><graph/></graphml>`
	if _, err := ParseGraphML(strings.NewReader(doc), "X", Tier1); err == nil {
		t.Error("expected error for missing coordinate keys")
	}
	if _, err := ParseGraphML(strings.NewReader("not xml at all <"), "X", Tier1); err == nil {
		t.Error("expected error for malformed XML")
	}
}
