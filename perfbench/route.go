package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"riskroute/internal/core"
	"riskroute/internal/forecast"
	"riskroute/internal/risk"
	worldsnap "riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// checkEvery is the stride of the seeded read sample whose bodies are
// checked against a direct engine computation after the timed loop; the
// first read after every swap is checked too.
const checkEvery = 16

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
	wrote  bool
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status, r.wrote = http.StatusOK, false
	r.body.Reset()
}

// newRequest builds the request of one op.
func newRequest(o op, corpus []string) (*http.Request, error) {
	if o.kind == opAdvisory {
		return http.NewRequest(http.MethodPost, "/v1/advisory", strings.NewReader(corpus[o.bulletin]))
	}
	return http.NewRequest(http.MethodGet, strings.TrimPrefix(o.target(), "GET "), nil)
}

// runLog is what one pass of an op list through a handler produced.
type runLog struct {
	opTime  []time.Duration // per-op handler wall time
	opCPU   []time.Duration // per-op on-CPU time (drive only): see drive
	done    []time.Duration // time since the loop started, at each op's end
	wall    time.Duration   // the whole timed loop
	refAt   []int           // op index each calibration task followed
	refWall []time.Duration // calibration task wall times
	refCPU  []time.Duration // calibration task CPU times
	status  []int           // per-op HTTP status
	bodies  map[int][]byte  // bodies kept for the answer checks
}

func newRunLog(n int) *runLog {
	return &runLog{
		opTime: make([]time.Duration, n),
		opCPU:  make([]time.Duration, n),
		done:   make([]time.Duration, n),
		status: make([]int, n),
		bodies: make(map[int][]byte),
	}
}

// record files op i's handler time and status, and its body when keep.
func (lg *runLog) record(i int, d time.Duration, rec *recorder, keep bool) {
	lg.opTime[i] = d
	lg.status[i] = rec.status
	if keep {
		lg.bodies[i] = bytes.Clone(rec.body.Bytes())
	}
}

// byKind splits per-op times, in op order, into reads and swaps.
func byKind(ops []op, times []time.Duration) (reads, swaps []time.Duration) {
	for i, o := range ops {
		if o.kind == opAdvisory {
			swaps = append(swaps, times[i])
		} else {
			reads = append(reads, times[i])
		}
	}
	return reads, swaps
}

// cached reports whether op i's kept body says it was a cache hit.
func (lg *runLog) cached(i int) bool {
	return bytes.Contains(lg.bodies[i], []byte(`"cached": true`))
}

// drive sends every op through h from one client goroutine, timing each
// ServeHTTP call, and keeps the bodies the answer checks need: every swap,
// the first read after each swap, and every checkEvery-th op. A read runs
// with its goroutine locked to its thread and is charged the thread's CPU
// time: it does no I/O and waits on nothing, so that is its latency net of
// steal. A swap rebuilds engines on several goroutines and is charged the
// whole process's CPU time. A calibration task runs after every
// refEvery-th op.
func drive(h http.Handler, ops []op, corpus []string) (*runLog, error) {
	lg := newRunLog(len(ops))
	rec := newRecorder()
	ref := newRefGraph()
	afterSwap := false
	start := time.Now()
	for i, o := range ops {
		req, err := newRequest(o, corpus)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		keep := o.kind == opAdvisory || afterSwap || i%checkEvery == 0
		afterSwap = o.kind == opAdvisory
		rec.reset()
		clock := processCPU
		if o.kind == opRoute {
			runtime.LockOSThread()
			clock = threadCPU
		}
		c0 := clock()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		lg.opCPU[i] = clock() - c0
		if o.kind == opRoute {
			runtime.UnlockOSThread()
		}
		lg.record(i, d, rec, keep)
		if (i+1)%refEvery == 0 {
			w, c := ref.run()
			lg.refAt = append(lg.refAt, i)
			lg.refWall = append(lg.refWall, w)
			lg.refCPU = append(lg.refCPU, c)
		}
		lg.done[i] = time.Since(start)
	}
	lg.wall = time.Since(start)
	return lg, nil
}

type legDoc struct {
	Path         []string `json:"path"`
	Miles        float64  `json:"miles"`
	BitRiskMiles float64  `json:"bit_risk_miles"`
}

type routeDoc struct {
	Generation uint64  `json:"generation"`
	Network    string  `json:"network"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	LambdaH    float64 `json:"lambda_h"`
	Storm      string  `json:"storm"`
	Advisory   int     `json:"advisory"`
	Shortest   legDoc  `json:"shortest"`
	RiskRoute  legDoc  `json:"riskroute"`
}

type advisoryDoc struct {
	Generation uint64 `json:"generation"`
	Storm      string `json:"storm"`
	Advisory   int    `json:"advisory"`
}

// checker recomputes route answers directly on the baked world's vectors,
// independent of the serving stack.
type checker struct {
	nets    map[string]*topology.Network
	world   *worldsnap.World
	corpus  []string
	parsed  map[int]*forecast.Advisory
	engines map[engineKey]*core.Engine
}

type engineKey struct {
	network  string
	bulletin int // -1: no advisory in force
	lambdaH  float64
}

func newChecker(nets []*topology.Network, world *worldsnap.World, corpus []string) *checker {
	c := &checker{
		nets:    make(map[string]*topology.Network, len(nets)),
		world:   world,
		corpus:  corpus,
		parsed:  make(map[int]*forecast.Advisory),
		engines: make(map[engineKey]*core.Engine),
	}
	for _, n := range nets {
		c.nets[n.Name] = n
	}
	return c
}

func (c *checker) advisory(b int) (*forecast.Advisory, error) {
	if a, ok := c.parsed[b]; ok {
		return a, nil
	}
	a, err := forecast.ParseAdvisory(c.corpus[b])
	if err != nil {
		return nil, fmt.Errorf("bulletin %d: %w", b, err)
	}
	c.parsed[b] = a
	return a, nil
}

// context is the risk context the server routes a read on: the baked
// historical risk and population fractions, the forecast layer of the
// advisory in force, and the request's λ.
func (c *checker) context(network string, bulletin int, lambdaH float64) (*risk.Context, error) {
	net := c.nets[network]
	ns := c.world.Network(network)
	if net == nil || ns == nil {
		return nil, fmt.Errorf("network %q not in the corpus or the snapshot", network)
	}
	p := risk.PaperParams()
	if lambdaH != 0 {
		p.LambdaH = lambdaH
	}
	ctx := &risk.Context{Net: net, Hist: ns.Hist, Fractions: ns.Fractions, Params: p}
	if bulletin >= 0 {
		adv, err := c.advisory(bulletin)
		if err != nil {
			return nil, err
		}
		ctx.Forecast = forecast.DefaultRiskModel().PoPRisks(adv, net)
	}
	return ctx, nil
}

func (c *checker) engine(network string, bulletin int, lambdaH float64) (*core.Engine, error) {
	k := engineKey{network, bulletin, lambdaH}
	if e, ok := c.engines[k]; ok {
		return e, nil
	}
	ctx, err := c.context(network, bulletin, lambdaH)
	if err != nil {
		return nil, err
	}
	e, err := core.New(ctx, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	c.engines[k] = e
	return e, nil
}

// checkRoute compares a route body with the direct computation: same
// paths, bit-identical costs and miles.
func (c *checker) checkRoute(o op, bulletin int, body []byte) error {
	var doc routeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("route body: %w", err)
	}
	e, err := c.engine(o.network, bulletin, o.lambdaH)
	if err != nil {
		return err
	}
	for _, leg := range []struct {
		name string
		got  legDoc
		want core.PairResult
	}{
		{"riskroute", doc.RiskRoute, e.RiskRoutePair(o.src, o.dst)},
		{"shortest", doc.Shortest, e.ShortestPair(o.src, o.dst)},
	} {
		net := c.nets[o.network]
		if len(leg.got.Path) != len(leg.want.Path) {
			return fmt.Errorf("%s %s->%s %s path has %d hops, want %d", o.network, o.from, o.to,
				leg.name, len(leg.got.Path), len(leg.want.Path))
		}
		for k, v := range leg.want.Path {
			if leg.got.Path[k] != net.PoPs[v].Name {
				return fmt.Errorf("%s %s->%s %s path differs at hop %d", o.network, o.from, o.to, leg.name, k)
			}
		}
		if math.Float64bits(leg.got.BitRiskMiles) != math.Float64bits(leg.want.BitRiskMiles) ||
			math.Float64bits(leg.got.Miles) != math.Float64bits(leg.want.Miles) {
			return fmt.Errorf("%s %s->%s %s cost %v/%v mi, want %v/%v mi", o.network, o.from, o.to, leg.name,
				leg.got.BitRiskMiles, leg.got.Miles, leg.want.BitRiskMiles, leg.want.Miles)
		}
	}
	return nil
}

// verify checks a pass's answers and returns the indices of failed ops
// with a reason each: non-200 statuses, swap generations that do not
// strictly increase or misreport their bulletin, first reads after a swap
// that do not echo its generation, storm and advisory number, and sampled
// reads that differ from the direct computation.
func (c *checker) verify(ops []op, lg *runLog) map[int]string {
	bad := make(map[int]string)
	bulletin := -1
	var gen uint64 = 1
	var storm string
	var number int
	afterSwap := false
	for i, o := range ops {
		if lg.status[i] != http.StatusOK {
			bad[i] = fmt.Sprintf("%s: status %d", o.target(), lg.status[i])
			continue
		}
		body, kept := lg.bodies[i]
		if o.kind == opAdvisory {
			var doc advisoryDoc
			adv, err := c.advisory(o.bulletin)
			switch {
			case err != nil:
				bad[i] = err.Error()
			case json.Unmarshal(body, &doc) != nil:
				bad[i] = "advisory body is not JSON"
			case doc.Generation <= gen:
				bad[i] = fmt.Sprintf("swap generation %d does not exceed %d", doc.Generation, gen)
			case doc.Storm != adv.Storm || doc.Advisory != adv.Number:
				bad[i] = fmt.Sprintf("swap reports %s #%d, posted %s #%d", doc.Storm, doc.Advisory, adv.Storm, adv.Number)
			}
			gen, storm, number = doc.Generation, adv.Storm, adv.Number
			bulletin, afterSwap = o.bulletin, true
			continue
		}
		first := afterSwap
		afterSwap = false
		if !kept {
			continue
		}
		if first {
			var doc routeDoc
			if err := json.Unmarshal(body, &doc); err != nil ||
				doc.Generation != gen || doc.Storm != storm || doc.Advisory != number {
				bad[i] = fmt.Sprintf("read after swap echoes generation %d %s #%d, want %d %s #%d",
					doc.Generation, doc.Storm, doc.Advisory, gen, storm, number)
				continue
			}
		}
		if err := c.checkRoute(o, bulletin, body); err != nil {
			bad[i] = err.Error()
		}
	}
	return bad
}
