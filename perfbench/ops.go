package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/topology"
)

// Workload shapes. Op counts are fixed per run (opsPerSecond × --seconds),
// never read off a clock, so one seed always yields one op list and one
// cache hit/miss count.
const (
	// route-cold: every customLambdaEvery-th read carries a non-default
	// lambda_h, and every coldSwapEvery-th op is an advisory POST.
	coldOpsPerSecond  = 4000
	customLambdaEvery = 10
	coldSwapEvery     = 100

	// route-swap: reads over hotLevel3 Level3 pairs plus hotOther pairs of
	// other networks; every swapEvery-th op is an advisory POST. With 199
	// reads between swaps over 32 pairs about 84% of reads hit the cache.
	swapOpsPerSecond = 13000
	hotLevel3        = 24
	hotOther         = 8
	swapEvery        = 200
)

// customLambdas are the non-default λ_h values route-cold requests carry
// (the daemon default is 1e5).
var customLambdas = []float64{1e4, 3e4, 3e5, 1e6}

type opKind uint8

const (
	opRoute opKind = iota
	opAdvisory
)

// op is one request of a workload: a /v1/route read or an advisory POST.
type op struct {
	kind     opKind
	network  string
	from     string
	to       string
	src      int     // PoP index of from
	dst      int     // PoP index of to
	lambdaH  float64 // 0 = the daemon default
	bulletin int     // index into the corpus (advisory ops)
}

// target renders an op as the request line the server receives; the
// rendered list is what the determinism test compares byte for byte.
func (o op) target() string {
	if o.kind == opAdvisory {
		return "POST /v1/advisory #" + strconv.Itoa(o.bulletin)
	}
	q := "network=" + url.QueryEscape(o.network) + "&from=" + url.QueryEscape(o.from) +
		"&to=" + url.QueryEscape(o.to)
	if o.lambdaH != 0 {
		q += "&lambda_h=" + url.QueryEscape(strconv.FormatFloat(o.lambdaH, 'g', -1, 64))
	}
	return "GET /v1/route?" + q
}

// bulletins is the advisory corpus swaps draw from: every bulletin of the
// embedded Irene, Katrina and Sandy tracks, in that order.
func bulletins() []string {
	var out []string
	for _, name := range []string{"Irene", "Katrina", "Sandy"} {
		out = append(out, forecast.GenerateCorpus(datasets.HurricaneByName(name))...)
	}
	return out
}

// pair is one ordered PoP pair of a network.
type pair struct {
	net      *topology.Network
	src, dst int
}

// allPairs lists every ordered pair of distinct PoPs of nets, network by
// network in corpus order.
func allPairs(nets []*topology.Network) []pair {
	var out []pair
	for _, n := range nets {
		for i := range n.PoPs {
			for j := range n.PoPs {
				if i != j {
					out = append(out, pair{net: n, src: i, dst: j})
				}
			}
		}
	}
	return out
}

func readOp(p pair, lambdaH float64) op {
	return op{kind: opRoute, network: p.net.Name, from: p.net.PoPs[p.src].Name,
		to: p.net.PoPs[p.dst].Name, src: p.src, dst: p.dst, lambdaH: lambdaH}
}

// opsFor returns the op count of a workload run lasting about seconds on
// the reference host.
func opsFor(workload string, seconds int) (int, error) {
	switch workload {
	case "route-cold":
		return coldOpsPerSecond * seconds, nil
	case "route-swap":
		return swapOpsPerSecond * seconds, nil
	}
	return 0, fmt.Errorf("unknown workload %q (want route-cold or route-swap)", workload)
}

// genOps builds the seeded op list of a workload: n ops over nets, with
// advisory bulletins indexed into a corpus of nBulletins. The same
// arguments always give the same list.
func genOps(workload string, seed int64, n int, nets []*topology.Network, nBulletins int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	next := rng.Intn(nBulletins)
	ops := make([]op, 0, n)
	switch workload {
	case "route-cold":
		// Reads draw pairs without replacement, so no read can hit the
		// result cache.
		pool := allPairs(nets)
		if reads := n - n/coldSwapEvery; reads > len(pool) {
			return nil, fmt.Errorf("route-cold: %d reads exceed the %d distinct pairs", reads, len(pool))
		}
		drawn, reads := 0, 0
		for i := 0; i < n; i++ {
			if (i+1)%coldSwapEvery == 0 {
				ops = append(ops, op{kind: opAdvisory, bulletin: next})
				next = (next + 1) % nBulletins
				continue
			}
			k := drawn + rng.Intn(len(pool)-drawn)
			pool[drawn], pool[k] = pool[k], pool[drawn]
			p := pool[drawn]
			drawn++
			lambda := 0.0
			if reads%customLambdaEvery == 0 {
				lambda = customLambdas[rng.Intn(len(customLambdas))]
			}
			reads++
			ops = append(ops, readOp(p, lambda))
		}
	case "route-swap":
		hot, err := hotSet(rng, nets)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if (i+1)%swapEvery == 0 {
				ops = append(ops, op{kind: opAdvisory, bulletin: next})
				next = (next + 1) % nBulletins
				continue
			}
			ops = append(ops, readOp(hot[rng.Intn(len(hot))], 0))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want route-cold or route-swap)", workload)
	}
	return ops, nil
}

// hotSet draws route-swap's hot pairs: hotLevel3 Level3 pairs, the network
// that carries about three quarters of all pairs, and one pair from each of
// hotOther other networks. The Level3 pairs come one from each of hotLevel3
// equal strata of its pairs ranked by endpoint distance; a route search
// stops at its target, so the strata keep the cost of a cache miss alike
// across seeds.
func hotSet(rng *rand.Rand, nets []*topology.Network) ([]pair, error) {
	var level3 *topology.Network
	var others []*topology.Network
	for _, n := range nets {
		if n.Name == "Level3" {
			level3 = n
		} else {
			others = append(others, n)
		}
	}
	if level3 == nil || len(others) < hotOther {
		return nil, fmt.Errorf("route-swap: corpus lacks Level3 or %d other networks", hotOther)
	}
	ranked := allPairs([]*topology.Network{level3})
	miles := func(p pair) float64 {
		return geo.Distance(level3.PoPs[p.src].Location, level3.PoPs[p.dst].Location)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return miles(ranked[i]) < miles(ranked[j]) })
	var hot []pair
	for s := 0; s < hotLevel3; s++ {
		lo, hi := s*len(ranked)/hotLevel3, (s+1)*len(ranked)/hotLevel3
		hot = append(hot, ranked[lo+rng.Intn(hi-lo)])
	}
	for _, i := range rng.Perm(len(others))[:hotOther] {
		hot = append(hot, randomPair(rng, others[i]))
	}
	return hot, nil
}

func randomPair(rng *rand.Rand, n *topology.Network) pair {
	i := rng.Intn(len(n.PoPs))
	j := rng.Intn(len(n.PoPs) - 1)
	if j >= i {
		j++
	}
	return pair{net: n, src: i, dst: j}
}
