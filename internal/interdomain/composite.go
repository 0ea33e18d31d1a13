// Package interdomain implements the multi-network side of RiskRoute
// (Sections 6.2 and 6.3): a composite routing graph over many ISPs joined at
// co-located peering PoPs, the upper/lower bit-risk-mile bounds (shortest
// path through the peering mesh versus RiskRoute with control of every
// network), and the search for the best new peering relationship or
// multihoming egress for a regional network.
package interdomain

import (
	"fmt"
	"sort"

	"riskroute/internal/topology"
)

// Composite merges member networks into one routable pseudo-network. Flat
// node k corresponds to PoP NodeLocal[k] of Networks[NodeNet[k]]; PoPs of
// peered networks in the same city are joined by zero-length peering links.
type Composite struct {
	Networks []*topology.Network
	// Flat is the merged pseudo-network. PoP names are "Network/City" and
	// its Tier is Tier1 so population assignment is not state-confined.
	Flat *topology.Network
	// NodeNet maps each flat node to its network's index in Networks.
	NodeNet []int
	// NodeLocal maps each flat node to its PoP index within its network.
	NodeLocal []int
	// PeeringLinkCount is the number of inter-network links added.
	PeeringLinkCount int

	nodesByNet map[string][]int
}

// Build merges the networks, joining same-city PoPs of network pairs for
// which peered returns true. It returns an error on duplicate network names
// or if the composite ends up disconnected (a disconnected peering mesh
// would silently skew every interdomain average).
func Build(nets []*topology.Network, peered func(a, b string) bool) (*Composite, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("interdomain: no networks")
	}
	c := &Composite{
		Networks:   nets,
		Flat:       &topology.Network{Name: "composite", Tier: topology.Tier1},
		nodesByNet: make(map[string][]int),
	}
	seen := make(map[string]bool)
	offsets := make([]int, len(nets))
	for ni, n := range nets {
		if seen[n.Name] {
			return nil, fmt.Errorf("interdomain: duplicate network %q", n.Name)
		}
		seen[n.Name] = true
		offsets[ni] = len(c.Flat.PoPs)
		for pi, p := range n.PoPs {
			flat := len(c.Flat.PoPs)
			c.Flat.PoPs = append(c.Flat.PoPs, topology.PoP{
				Name:     n.Name + "/" + p.Name,
				Location: p.Location,
				State:    p.State,
			})
			c.NodeNet = append(c.NodeNet, ni)
			c.NodeLocal = append(c.NodeLocal, pi)
			c.nodesByNet[n.Name] = append(c.nodesByNet[n.Name], flat)
		}
		for _, l := range n.Links {
			c.Flat.Links = append(c.Flat.Links, topology.Link{
				A: offsets[ni] + l.A,
				B: offsets[ni] + l.B,
			})
		}
	}

	// Peering links between co-located PoPs of peered networks.
	for ai := range nets {
		for bi := ai + 1; bi < len(nets); bi++ {
			if !peered(nets[ai].Name, nets[bi].Name) {
				continue
			}
			c.PeeringLinkCount += c.joinColocated(ai, bi, offsets)
		}
	}

	if err := c.Flat.Validate(); err != nil {
		return nil, fmt.Errorf("interdomain: %w", err)
	}
	return c, nil
}

// joinColocated links every same-city PoP pair between networks ai and bi
// and returns how many links were added.
func (c *Composite) joinColocated(ai, bi int, offsets []int) int {
	a, b := c.Networks[ai], c.Networks[bi]
	bIdx := make(map[string]int, len(b.PoPs))
	for pi, p := range b.PoPs {
		bIdx[p.Name] = pi
	}
	added := 0
	for pi, p := range a.PoPs {
		if qi, ok := bIdx[p.Name]; ok {
			c.Flat.Links = append(c.Flat.Links, topology.Link{
				A: offsets[ai] + pi,
				B: offsets[bi] + qi,
			})
			added++
		}
	}
	return added
}

// NodesOf returns the flat node indices of the named member network, or nil
// for unknown names.
func (c *Composite) NodesOf(name string) []int {
	return c.nodesByNet[name]
}

// SharedCities returns the city names present in both named networks,
// sorted. These are the potential peering points of Section 6.3's candidate
// peer analysis.
func SharedCities(a, b *topology.Network) []string {
	bSet := make(map[string]bool, len(b.PoPs))
	for _, p := range b.PoPs {
		bSet[p.Name] = true
	}
	var out []string
	for _, p := range a.PoPs {
		if bSet[p.Name] {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// CandidatePeers returns the names of networks that share at least one city
// with the named network but have no peering relationship with it — the
// paper's "candidate peers" (Section 6.3). Results are sorted.
func CandidatePeers(nets []*topology.Network, name string, peered func(a, b string) bool) []string {
	var self *topology.Network
	for _, n := range nets {
		if n.Name == name {
			self = n
			break
		}
	}
	if self == nil {
		return nil
	}
	var out []string
	for _, n := range nets {
		if n.Name == name || peered(name, n.Name) {
			continue
		}
		if len(SharedCities(self, n)) > 0 {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out
}
