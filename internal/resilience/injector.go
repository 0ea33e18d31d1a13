package resilience

import (
	"math"
	"sync"

	"riskroute/internal/stats"
)

// Point names one fault-injection site in the pipeline. Stages consult the
// injector at these points; the names are stable API used by tests and the
// `riskroute check` harness.
type Point string

// The pipeline's named injection points.
const (
	// PointTopologyParse fires inside topology.Parse, keyed by line number.
	PointTopologyParse Point = "topology-parse"
	// PointAdvisoryParse fires inside forecast replay loading, keyed by
	// advisory index.
	PointAdvisoryParse Point = "advisory-parse"
	// PointKDEFit fires inside hazard.Fit, keyed by source index.
	PointKDEFit Point = "kde-fit"
	// PointIngestPoll fires in the continuous advisory poller at two
	// granularities: ForceError rules, keyed by poll attempt number, fail
	// the whole attempt (a feed timeout or 5xx); Corrupt/Truncate/Drop
	// rules, keyed by item accept sequence, mangle or lose one advisory's
	// text (a flaky feed). The mode split keeps the two key spaces from
	// colliding.
	PointIngestPoll Point = "ingest-poll"
	// PointIngestJournal fires before a validated advisory is appended to
	// the write-ahead journal, keyed by the journal sequence the record
	// would take — a forced error models a full or failing disk.
	PointIngestJournal Point = "ingest-journal"
	// PointIngestSwap fires in the poller's swap guard, keyed by the
	// advisory's journal sequence: a ForceError at the plain key models a
	// rebuild failure before publish; the poller also consults key +
	// PostSwapKeyOffset after publish, and a forced error there drives the
	// rollback (revert-republish) path.
	PointIngestSwap Point = "ingest-swap"
)

// PostSwapKeyOffset shifts an ingest-swap injection key past the pre-swap
// key space: rules targeting journal sequence s fail the rebuild before
// publish, rules targeting s+PostSwapKeyOffset fail the post-publish
// verification and exercise rollback. The offset is far above any real
// journal sequence.
const PostSwapKeyOffset uint64 = 1 << 32

// Mode is the kind of fault to inject.
type Mode int

const (
	// Corrupt deterministically mangles a window of the input text, turning
	// digits into junk so numeric fields stop parsing.
	Corrupt Mode = iota
	// Truncate cuts the input to a deterministic fraction of its length.
	Truncate
	// Drop removes the input entirely.
	Drop
	// ForceError makes the stage return an *InjectedError for the keyed item
	// without touching its input.
	ForceError
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case Drop:
		return "drop"
	case ForceError:
		return "force-error"
	default:
		return "unknown"
	}
}

// fault is one enabled fault rule.
type fault struct {
	mode Mode
	rate float64         // probability per key in [0, 1]; ignored when keys set
	keys map[uint64]bool // explicit target keys; nil means rate-based
}

// Injector is a deterministic, seeded fault-injection harness. Decisions
// depend only on (seed, point, key), never on call order or goroutine
// scheduling, so a faulted run replays bit-identically under -race and at any
// worker count. A nil *Injector is inert: every query reports "no fault".
type Injector struct {
	seed uint64

	mu     sync.RWMutex
	faults map[Point][]fault
	fired  map[Point]int // per-point count of faults that actually fired
}

// NewInjector returns an injector whose decisions are a pure function of
// seed, point, and key.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		seed:   seed,
		faults: make(map[Point][]fault),
		fired:  make(map[Point]int),
	}
}

// Enable arms a fault at point p firing independently for each key with the
// given rate (clamped to [0, 1]). It returns the injector for chaining.
func (in *Injector) Enable(p Point, m Mode, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.mu.Lock()
	in.faults[p] = append(in.faults[p], fault{mode: m, rate: rate})
	in.mu.Unlock()
	return in
}

// EnableKeys arms a fault at point p firing for exactly the given keys —
// the targeted form tests use to knock out one named layer or advisory.
func (in *Injector) EnableKeys(p Point, m Mode, keys ...uint64) *Injector {
	set := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	in.mu.Lock()
	in.faults[p] = append(in.faults[p], fault{mode: m, keys: set})
	in.mu.Unlock()
	return in
}

// Fired returns how many faults have actually fired at point p.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.fired[p]
}

// hash folds seed, point, and key into a deterministic 64-bit value.
func (in *Injector) hash(p Point, key uint64) uint64 {
	h := in.seed
	for _, c := range []byte(p) {
		h = stats.SplitMix64(h ^ uint64(c))
	}
	return stats.SplitMix64(h ^ key)
}

// firing returns the armed fault that fires for (p, key) among rules whose
// mode passes want, or ok=false. Each armed fault gets an independent
// deterministic coin (salted by its position in the rule list, so the same
// rule draws the same coin no matter which query consults it); the first
// firing rule wins in Enable order.
func (in *Injector) firing(p Point, key uint64, want func(Mode) bool) (fault, bool) {
	if in == nil {
		return fault{}, false
	}
	in.mu.RLock()
	rules := in.faults[p]
	in.mu.RUnlock()
	for ri, f := range rules {
		if !want(f.mode) {
			continue
		}
		if f.keys != nil {
			if f.keys[key] {
				in.markFired(p)
				return f, true
			}
			continue
		}
		// Salt by rule index so stacked rules draw independent coins.
		u := float64(in.hash(p, stats.SplitMix64(key^uint64(ri)))) / math.MaxUint64
		if u < f.rate {
			in.markFired(p)
			return f, true
		}
	}
	return fault{}, false
}

func (in *Injector) markFired(p Point) {
	in.mu.Lock()
	in.fired[p]++
	in.mu.Unlock()
}

// Fail returns an *InjectedError when a ForceError or Drop fault fires for
// (p, key), nil otherwise. Stages that consume whole items (a hazard source,
// one advisory) treat both modes as "this item fails"; Corrupt/Truncate rules
// are left for Transform.
func (in *Injector) Fail(p Point, key uint64) error {
	_, ok := in.firing(p, key, func(m Mode) bool { return m == ForceError || m == Drop })
	if !ok {
		return nil
	}
	return &InjectedError{Point: p, Key: key}
}

// ForcedError is Fail restricted to ForceError rules — for points like a
// whole-parse entry where a Drop rule aimed at per-item keys must not abort
// the entire stage.
func (in *Injector) ForcedError(p Point, key uint64) error {
	_, ok := in.firing(p, key, func(m Mode) bool { return m == ForceError })
	if !ok {
		return nil
	}
	return &InjectedError{Point: p, Key: key}
}

// Transform applies input-mutating faults to one item of text. It returns
// the (possibly mangled) text and dropped=true when a Drop fault consumed the
// item entirely. ForceError faults do not alter text; pair Transform with
// Fail at points that take both kinds.
func (in *Injector) Transform(p Point, key uint64, text string) (out string, dropped bool) {
	f, ok := in.firing(p, key, func(m Mode) bool { return m != ForceError })
	if !ok {
		return text, false
	}
	switch f.mode {
	case Drop:
		return "", true
	case Truncate:
		// Keep a deterministic 10–60% prefix.
		frac := 0.1 + 0.5*float64(in.hash(p, stats.SplitMix64(key)))/math.MaxUint64
		return text[:int(float64(len(text))*frac)], false
	case Corrupt:
		return in.corrupt(p, key, text), false
	default:
		return text, false
	}
}

// corrupt mangles a deterministic window of text: digits in the window become
// '#', so numeric fields fail to parse while the overall shape survives.
func (in *Injector) corrupt(p Point, key uint64, text string) string {
	if len(text) == 0 {
		return text
	}
	h := in.hash(p, stats.SplitMix64(key)+1)
	width := len(text)/3 + 1
	start := int(h % uint64(len(text)))
	b := []byte(text)
	for i := start; i < start+width && i < len(b); i++ {
		if b[i] >= '0' && b[i] <= '9' {
			b[i] = '#'
		}
	}
	return string(b)
}
