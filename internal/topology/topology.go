// Package topology models the physical infrastructure RiskRoute analyzes:
// Internet Service Provider networks as sets of geolocated Points of
// Presence (PoPs) connected by links. Link lengths are line-of-sight
// great-circle miles, matching the paper's treatment of Topology Zoo and
// Internet Atlas maps (Section 4.1): real fiber follows highways and rail
// but its paths are reasonably direct between endpoint cities.
package topology

import (
	"fmt"
	"sort"

	"riskroute/internal/geo"
	"riskroute/internal/graph"
)

// Tier classifies a network's scope, mirroring the paper's split between
// nationwide Tier-1 providers and geographically confined regional networks.
type Tier int

const (
	// Tier1 marks nationwide backbone providers (the paper studies 7).
	Tier1 Tier = iota + 1
	// Regional marks geographically confined networks (the paper studies 16).
	Regional
)

// String returns "tier1" or "regional".
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Regional:
		return "regional"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// PoP is a Point of Presence: a router site at a known location.
type PoP struct {
	Name     string // unique within its network, e.g. "Houston, TX"
	Location geo.Point
	State    string // two-letter USPS code, used to confine regional populations
}

// Link is an undirected edge between two PoPs, identified by index.
type Link struct {
	A, B int
}

// Network is one ISP's infrastructure map.
type Network struct {
	Name  string
	Tier  Tier
	PoPs  []PoP
	Links []Link
}

// Validate checks structural invariants: non-empty name, at least one PoP,
// unique PoP names, valid coordinates, in-range link endpoints, no
// self-loops, no duplicate links, and a connected topology.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("topology: network has no name")
	}
	if len(n.PoPs) == 0 {
		return fmt.Errorf("topology: network %q has no PoPs", n.Name)
	}
	seen := make(map[string]bool, len(n.PoPs))
	for i, p := range n.PoPs {
		if p.Name == "" {
			return fmt.Errorf("topology: %s PoP %d has no name", n.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("topology: %s has duplicate PoP %q", n.Name, p.Name)
		}
		seen[p.Name] = true
		if !p.Location.Valid() {
			return fmt.Errorf("topology: %s PoP %q has invalid location %v", n.Name, p.Name, p.Location)
		}
	}
	linkSeen := make(map[[2]int]bool, len(n.Links))
	for _, l := range n.Links {
		if l.A < 0 || l.A >= len(n.PoPs) || l.B < 0 || l.B >= len(n.PoPs) {
			return fmt.Errorf("topology: %s link (%d,%d) out of range", n.Name, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topology: %s self-loop at PoP %q", n.Name, n.PoPs[l.A].Name)
		}
		key := [2]int{l.A, l.B}
		if l.A > l.B {
			key = [2]int{l.B, l.A}
		}
		if linkSeen[key] {
			return fmt.Errorf("topology: %s duplicate link %q-%q", n.Name, n.PoPs[l.A].Name, n.PoPs[l.B].Name)
		}
		linkSeen[key] = true
	}
	if len(n.PoPs) > 1 && !n.Graph().Connected() {
		return fmt.Errorf("topology: network %q is not connected", n.Name)
	}
	return nil
}

// HasLink reports whether PoPs a and b are directly linked.
func (n *Network) HasLink(a, b int) bool {
	for _, l := range n.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return true
		}
	}
	return false
}

// PoPIndex returns the index of the PoP with the given name, or -1.
func (n *Network) PoPIndex(name string) int {
	for i, p := range n.PoPs {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// LinkMiles returns the line-of-sight length of link l in miles.
func (n *Network) LinkMiles(l Link) float64 {
	return geo.Distance(n.PoPs[l.A].Location, n.PoPs[l.B].Location)
}

// Graph converts the network to a distance-weighted graph whose node i is
// PoP i and whose edge weights are line-of-sight miles.
func (n *Network) Graph() *graph.Graph {
	g := graph.New(len(n.PoPs))
	for _, l := range n.Links {
		g.AddEdge(l.A, l.B, n.LinkMiles(l))
	}
	return g
}

// Locations returns every PoP's coordinates, index-aligned with PoPs.
func (n *Network) Locations() []geo.Point {
	pts := make([]geo.Point, len(n.PoPs))
	for i, p := range n.PoPs {
		pts[i] = p.Location
	}
	return pts
}

// States returns the sorted set of states the network has PoPs in.
func (n *Network) States() []string {
	set := make(map[string]bool)
	for _, p := range n.PoPs {
		if p.State != "" {
			set[p.State] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// GeographicFootprint returns the largest great-circle distance between any
// two PoPs, in miles — the "geographic footprint size" characteristic the
// paper correlates with RiskRoute performance in Table 3.
func (n *Network) GeographicFootprint() float64 {
	max := 0.0
	for i := range n.PoPs {
		for j := i + 1; j < len(n.PoPs); j++ {
			if d := geo.Distance(n.PoPs[i].Location, n.PoPs[j].Location); d > max {
				max = d
			}
		}
	}
	return max
}

// AverageOutdegree returns the mean number of links per PoP (each undirected
// link counts toward both endpoints), another Table 3 characteristic.
func (n *Network) AverageOutdegree() float64 {
	if len(n.PoPs) == 0 {
		return 0
	}
	return 2 * float64(len(n.Links)) / float64(len(n.PoPs))
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{Name: n.Name, Tier: n.Tier}
	c.PoPs = append([]PoP(nil), n.PoPs...)
	c.Links = append([]Link(nil), n.Links...)
	return c
}

// AddLink appends a link between PoP indices a and b. It panics on invalid
// endpoints and returns an error if the link already exists.
func (n *Network) AddLink(a, b int) error {
	if a < 0 || a >= len(n.PoPs) || b < 0 || b >= len(n.PoPs) || a == b {
		panic(fmt.Sprintf("topology: invalid link (%d,%d)", a, b))
	}
	if n.HasLink(a, b) {
		return fmt.Errorf("topology: link %q-%q already exists", n.PoPs[a].Name, n.PoPs[b].Name)
	}
	n.Links = append(n.Links, Link{A: a, B: b})
	return nil
}

// geoPoint is a small constructor keeping parser call sites terse.
func geoPoint(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }
