// Package ingest is the serving daemon's continuous advisory ingestion
// subsystem: a feed poller that turns a flaky external advisory source into
// a crash-safe stream of snapshot swaps.
//
// The pipeline for one advisory is
//
//	poll → validate → dedupe → journal (fsync) → swap → verify
//
// with a failure policy at every stage:
//
//   - Poll attempts run under a per-attempt timeout, feed failures back off
//     exponentially with deterministic jitter, and a circuit breaker trips
//     after consecutive failures, half-opening on a probe after a cooldown.
//   - Advisories that fail validation (forecast.ValidateAdvisory) are
//     quarantined to a dead-letter directory with the failure reason and
//     never touch the journal or the serving world.
//   - Accepted advisories are appended — and fsynced — to a checksummed,
//     length-prefixed write-ahead journal *before* the swap is attempted,
//     so a process killed at any instant recovers to the exact pre-crash
//     generation by replaying the journal at boot (Recover).
//   - The swap runs inside a panic-recovery guard; a swap that errors or
//     panics quarantines the advisory, and a world that fails post-publish
//     verification is rolled back by republishing the last good snapshot
//     under a fresh generation (Swapper.RevertAdvisory), so readers never
//     see a torn world and generations stay monotonic.
//
// Every lifecycle event is observable: ingest.* counters and gauges in the
// metrics registry, health events, leveled logs, and the Status document
// the daemon serves at /v1/ingest.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"riskroute/internal/forecast"
	"riskroute/internal/obs"
	"riskroute/internal/resilience"
)

// Swapper is the serving surface the poller drives. *serve.Server
// implements it; tests substitute fakes.
type Swapper interface {
	// ApplyParsed swaps a validated advisory into the serving world and
	// returns the generation now serving. parseDur is how long validation
	// took, so the swap timeline (/v1/generations) can report the full
	// parse/rebuild/swap breakdown.
	ApplyParsed(adv *forecast.Advisory, parseDur time.Duration) (uint64, error)
	// RevertAdvisory republishes the snapshot that preceded generation
	// fromGen under a fresh generation — the rollback half of a swap whose
	// published world failed verification.
	RevertAdvisory(fromGen uint64) (uint64, error)
	// Generation returns the currently served generation.
	Generation() uint64
}

// Config tunes a Poller.
type Config struct {
	// Source is the advisory feed; nil builds a recovery-only poller
	// (Recover works, Run errors).
	Source Source
	// JournalDir holds the write-ahead journal and the quarantine
	// dead-letter directory. Required.
	JournalDir string
	// Interval is the healthy-feed poll cadence (default 10s).
	Interval time.Duration
	// PollTimeout bounds one poll attempt (default 5s).
	PollTimeout time.Duration
	// BackoffMax caps the exponential retry delay (default 2m).
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker (default 5); BreakerCooldown is how long it stays
	// open before half-opening on a probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed feeds the deterministic backoff jitter (default 1).
	Seed uint64

	// Observability and fault injection (all optional, nil-safe).
	Metrics  *obs.Registry
	Trace    *obs.Span
	Logger   *slog.Logger
	Health   *resilience.Health
	Injector *resilience.Injector

	// now is the clock (tests inject a fake; nil means time.Now).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.PollTimeout <= 0 {
		c.PollTimeout = 5 * time.Second
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// ingestObs caches the subsystem's metric handles (nil registry = no-ops).
type ingestObs struct {
	polls        *obs.Counter // ingest.polls_total
	pollFailures *obs.Counter // ingest.poll_failures_total
	accepted     *obs.Counter // ingest.accepted_total
	duplicates   *obs.Counter // ingest.duplicates_total
	quarantined  *obs.Counter // ingest.quarantined_total
	replayed     *obs.Counter // ingest.replayed_total
	trips        *obs.Counter // ingest.breaker.trips_total
	rollbacks    *obs.Counter // ingest.rollbacks_total
	breakerState *obs.Gauge   // ingest.breaker.state (0 closed, 1 open, 2 half-open)
	journalLag   *obs.Gauge   // ingest.journal.lag (journaled - applied)
}

func newIngestObs(r *obs.Registry) ingestObs {
	if r == nil {
		return ingestObs{}
	}
	return ingestObs{
		polls:        r.Counter("ingest.polls_total"),
		pollFailures: r.Counter("ingest.poll_failures_total"),
		accepted:     r.Counter("ingest.accepted_total"),
		duplicates:   r.Counter("ingest.duplicates_total"),
		quarantined:  r.Counter("ingest.quarantined_total"),
		replayed:     r.Counter("ingest.replayed_total"),
		trips:        r.Counter("ingest.breaker.trips_total"),
		rollbacks:    r.Counter("ingest.rollbacks_total"),
		breakerState: r.Gauge("ingest.breaker.state"),
		journalLag:   r.Gauge("ingest.journal.lag"),
	}
}

// Status is the ingestion lifecycle document served at /v1/ingest.
type Status struct {
	Feed                string `json:"feed"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	BreakerTrips        uint64 `json:"breaker_trips"`
	Polls               uint64 `json:"polls"`
	PollFailures        uint64 `json:"poll_failures"`
	Accepted            uint64 `json:"accepted"`
	Duplicates          uint64 `json:"duplicates"`
	Quarantined         uint64 `json:"quarantined"`
	Replayed            uint64 `json:"replayed"`
	Rollbacks           uint64 `json:"rollbacks"`
	JournalSeq          uint64 `json:"journal_seq"`
	AppliedSeq          uint64 `json:"applied_seq"`
	JournalLag          uint64 `json:"journal_lag"`
	Generation          uint64 `json:"generation"`
	LastAdvisory        string `json:"last_advisory,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// Poller is the continuous ingestion engine. Recover and Run mutate state
// from a single goroutine; Status may be called concurrently from HTTP
// handlers.
type Poller struct {
	cfg     Config
	tel     ingestObs
	lg      *slog.Logger
	swapper Swapper
	journal *Journal
	quar    *quarantine
	brk     *breaker
	bo      backoff

	recovered []Record        // journal records awaiting Recover
	seen      map[string]bool // "STORM#N" advisories already applied

	mu           sync.Mutex // guards the mutable status fields below
	polls        uint64
	pollFailures uint64
	accepted     uint64
	duplicates   uint64
	quarantined  uint64
	replayed     uint64
	rollbacks    uint64
	appliedSeq   uint64
	itemSeq      uint64 // accept sequence for item-level fault keys
	lastAdvisory string
	lastError    string
}

// NewPoller opens (or creates) the journal under cfg.JournalDir and builds
// the poller. The journal's valid prefix is held for Recover; call Recover
// before Run so the serving world reaches the pre-crash generation before
// new advisories stream in.
func NewPoller(cfg Config, sw Swapper) (*Poller, error) {
	cfg = cfg.withDefaults()
	if sw == nil {
		return nil, errors.New("ingest: nil swapper")
	}
	if cfg.JournalDir == "" {
		return nil, errors.New("ingest: JournalDir is required (the journal is the crash-safety anchor)")
	}
	j, recs, err := OpenJournal(cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	q, err := newQuarantine(cfg.JournalDir)
	if err != nil {
		j.Close()
		return nil, err
	}
	p := &Poller{
		cfg:       cfg,
		tel:       newIngestObs(cfg.Metrics),
		lg:        obs.LoggerOrNop(cfg.Logger),
		swapper:   sw,
		journal:   j,
		quar:      q,
		brk:       newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		bo:        backoff{base: cfg.Interval, max: cfg.BackoffMax, seed: cfg.Seed},
		recovered: recs,
		seen:      make(map[string]bool),
	}
	p.publishGauges()
	return p, nil
}

// Close releases the journal.
func (p *Poller) Close() error { return p.journal.Close() }

// advKey identifies an advisory for dedupe: storm name plus advisory
// number.
func advKey(a *forecast.Advisory) string {
	return fmt.Sprintf("%s#%d", a.Storm, a.Number)
}

// Recover replays the journal's valid prefix through validate→swap,
// bringing the serving world to the exact generation the process reached
// before it crashed. Records that fail validation or whose swap fails are
// quarantined — deterministically, the same outcome they had (or would
// have had) pre-crash — and replay continues. It returns how many records
// were applied.
func (p *Poller) Recover() (int, error) {
	span := p.cfg.Trace.Child("ingest-recover")
	defer span.End()
	applied := 0
	for _, rec := range p.recovered {
		parseStart := time.Now()
		adv, err := forecast.ValidateAdvisory(rec.Text)
		parseDur := time.Since(parseStart)
		if err != nil {
			p.quarantineItem(rec.Text, fmt.Sprintf("replay seq %d: validate: %v", rec.Seq, err), err)
			continue
		}
		if p.seen[advKey(adv)] {
			p.count(&p.duplicates, p.tel.duplicates)
			continue
		}
		gen, err := p.applySwap(adv, rec.Seq, parseDur)
		if err != nil {
			p.quarantineItem(rec.Text, fmt.Sprintf("replay seq %d: swap: %v", rec.Seq, err), err)
			continue
		}
		p.seen[advKey(adv)] = true
		p.noteApplied(rec.Seq, adv, gen)
		p.count(&p.replayed, p.tel.replayed)
		applied++
	}
	span.SetAttr("records", len(p.recovered))
	span.SetAttr("applied", applied)
	if n := len(p.recovered); n > 0 {
		p.cfg.Health.Record("ingest", "journal replay: %d/%d records applied, generation %d",
			applied, n, p.swapper.Generation())
		p.lg.Info("journal replayed", "records", n, "applied", applied,
			"generation", p.swapper.Generation())
	}
	p.recovered = nil
	p.publishGauges()
	return applied, nil
}

// Run polls the feed until ctx is cancelled. It is the poller's only
// mutating goroutine; start it after Recover.
func (p *Poller) Run(ctx context.Context) error {
	if p.cfg.Source == nil {
		return errors.New("ingest: no feed source configured")
	}
	if len(p.recovered) > 0 {
		return errors.New("ingest: Run before Recover would re-apply journaled advisories out of order")
	}
	p.lg.Info("ingest poller started", "feed", p.cfg.Source.Name(),
		"interval", p.cfg.Interval, "journal", p.journal.Path())
	var attempt uint64
	for {
		timer := time.NewTimer(p.bo.Next())
		select {
		case <-ctx.Done():
			timer.Stop()
			p.lg.Info("ingest poller stopped")
			return nil
		case <-timer.C:
		}
		attempt++
		p.pollOnce(ctx, attempt)
	}
}

// pollOnce performs one poll attempt: breaker gate, timed fetch, then item
// processing. Feed-level failures feed the breaker and the backoff; item
// failures are handled per item and do not.
func (p *Poller) pollOnce(ctx context.Context, attempt uint64) {
	if !p.brk.Allow() {
		p.publishGauges()
		return
	}
	p.count(&p.polls, p.tel.polls)

	actx, cancel := context.WithTimeout(ctx, p.cfg.PollTimeout)
	items, err := p.cfg.Source.Poll(actx)
	cancel()
	if err == nil {
		err = p.cfg.Injector.ForcedError(resilience.PointIngestPoll, attempt)
	}
	if err != nil && ctx.Err() != nil {
		return // shutdown, not feed failure
	}
	if err != nil {
		p.count(&p.pollFailures, p.tel.pollFailures)
		p.setLastError(err)
		p.bo.Fail()
		if p.brk.Failure() {
			p.count(nil, p.tel.trips)
			_, fails, _ := p.brk.Snapshot()
			p.cfg.Health.Degrade("ingest", err, "feed breaker tripped after %d consecutive failures", fails)
			p.lg.Warn("feed breaker tripped", "failures", fails, "err", err.Error())
		} else {
			p.lg.Warn("feed poll failed", "attempt", attempt, "err", err.Error())
		}
		p.publishGauges()
		return
	}
	if st, _, _ := p.brk.Snapshot(); st != BreakerClosed {
		p.cfg.Health.Record("ingest", "feed recovered; breaker closing")
		p.lg.Info("feed recovered; breaker closing")
	}
	p.brk.Success()
	p.bo.OK()
	for _, text := range items {
		p.ingestOne(text)
	}
	p.publishGauges()
}

// ingestOne carries one raw feed item through validate → dedupe → journal
// → swap. Item-level failures quarantine the payload and never abort the
// poll loop.
func (p *Poller) ingestOne(text string) {
	p.mu.Lock()
	p.itemSeq++
	item := p.itemSeq
	p.mu.Unlock()

	text, dropped := p.cfg.Injector.Transform(resilience.PointIngestPoll, item, text)
	if dropped {
		return // the feed never delivered this item
	}
	parseStart := time.Now()
	adv, err := forecast.ValidateAdvisory(text)
	parseDur := time.Since(parseStart)
	if err != nil {
		p.quarantineItem(text, fmt.Sprintf("validate: %v", err), err)
		return
	}
	if p.seen[advKey(adv)] {
		p.count(&p.duplicates, p.tel.duplicates)
		return
	}

	// Journal before swap: once Append returns, the advisory survives any
	// crash, and boot-time Recover will finish what a killed process
	// started.
	if err := p.cfg.Injector.ForcedError(resilience.PointIngestJournal, p.journal.Seq()+1); err != nil {
		p.quarantineItem(text, fmt.Sprintf("journal: %v", err), err)
		return
	}
	seq, err := p.journal.Append(text)
	if err != nil {
		p.quarantineItem(text, fmt.Sprintf("journal: %v", err), err)
		return
	}

	gen, err := p.applySwap(adv, seq, parseDur)
	if err != nil {
		p.quarantineItem(text, fmt.Sprintf("swap (journal seq %d): %v", seq, err), err)
		return
	}
	p.seen[advKey(adv)] = true
	p.noteApplied(seq, adv, gen)
	p.count(&p.accepted, p.tel.accepted)
	p.lg.Info("advisory ingested", "storm", adv.Storm, "advisory", adv.Number,
		"journal_seq", seq, "generation", gen)
}

// applySwap is the panic-recovery guard around the snapshot swap, keyed by
// the advisory's journal sequence (so a replayed fault schedule fires
// identically at boot). A recovered panic becomes a typed DegradedError; a
// world that fails post-publish verification is rolled back by
// republishing the last good snapshot under a fresh generation.
func (p *Poller) applySwap(adv *forecast.Advisory, seq uint64, parseDur time.Duration) (gen uint64, err error) {
	before := p.swapper.Generation()
	defer func() {
		if r := recover(); r != nil {
			err = &resilience.DegradedError{Stage: "ingest-swap",
				Err: fmt.Errorf("swap panicked: %v", r)}
			if cur := p.swapper.Generation(); cur > before {
				// The panic escaped after publish: the published world is
				// suspect. Roll back.
				gen = p.revert(cur, err)
			} else {
				gen = cur
			}
			p.cfg.Health.Degrade("ingest", err, "swap for %s advisory %d panicked", adv.Storm, adv.Number)
		}
	}()
	if ierr := p.cfg.Injector.ForcedError(resilience.PointIngestSwap, seq); ierr != nil {
		return before, ierr
	}
	gen, err = p.swapper.ApplyParsed(adv, parseDur)
	if err != nil {
		return gen, err
	}
	// Post-publish verification hook: the injector can declare the
	// published world bad (modeling a semantic check failing after the
	// pointer moved), which must roll back rather than keep serving it.
	if verr := p.cfg.Injector.ForcedError(resilience.PointIngestSwap, seq+resilience.PostSwapKeyOffset); verr != nil {
		return p.revert(gen, verr), verr
	}
	return gen, nil
}

// revert rolls the serving world back from the suspect generation to the
// last good snapshot (republished under a fresh generation) and returns
// the generation now serving.
func (p *Poller) revert(fromGen uint64, cause error) uint64 {
	gen, err := p.swapper.RevertAdvisory(fromGen)
	if err != nil {
		p.cfg.Health.Fail("ingest", err, "rollback from generation %d failed", fromGen)
		p.lg.Error("rollback failed", "from_generation", fromGen, "err", err.Error())
		return gen
	}
	p.count(&p.rollbacks, p.tel.rollbacks)
	p.cfg.Health.Degrade("ingest", cause, "rolled back generation %d; serving last good world as generation %d", fromGen, gen)
	p.lg.Warn("swap rolled back", "bad_generation", fromGen, "generation", gen, "cause", cause.Error())
	return gen
}

// quarantineItem dead-letters one payload with its reason and records the
// event on every observability surface.
func (p *Poller) quarantineItem(text, reason string, cause error) {
	p.count(&p.quarantined, p.tel.quarantined)
	p.setLastError(cause)
	path, err := p.quar.Put(text, reason)
	if err != nil {
		p.cfg.Health.Fail("ingest", err, "quarantine write failed (%s)", reason)
		p.lg.Error("quarantine write failed", "reason", reason, "err", err.Error())
		return
	}
	p.cfg.Health.Degrade("ingest", cause, "advisory quarantined: %s", reason)
	p.lg.Warn("advisory quarantined", "reason", reason, "path", path)
}

// count bumps a status counter (addr may be nil) and its metric mirror.
func (p *Poller) count(addr *uint64, c *obs.Counter) {
	if addr != nil {
		p.mu.Lock()
		*addr++
		p.mu.Unlock()
	}
	c.Inc()
}

func (p *Poller) setLastError(err error) {
	p.mu.Lock()
	p.lastError = err.Error()
	p.mu.Unlock()
}

func (p *Poller) noteApplied(seq uint64, adv *forecast.Advisory, gen uint64) {
	p.mu.Lock()
	p.appliedSeq = seq
	p.lastAdvisory = fmt.Sprintf("%s advisory %d (generation %d)", adv.Storm, adv.Number, gen)
	p.mu.Unlock()
	p.publishGauges()
}

// publishGauges refreshes the breaker-state and journal-lag gauges.
func (p *Poller) publishGauges() {
	st, _, _ := p.brk.Snapshot()
	p.tel.breakerState.Set(float64(st))
	p.mu.Lock()
	lag := p.journal.Seq() - p.appliedSeq
	p.mu.Unlock()
	p.tel.journalLag.Set(float64(lag))
}

// Status snapshots the ingestion lifecycle for /v1/ingest.
func (p *Poller) Status() Status {
	st, fails, trips := p.brk.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	feed := "(none)"
	if p.cfg.Source != nil {
		feed = p.cfg.Source.Name()
	}
	return Status{
		Feed:                feed,
		Breaker:             st.String(),
		ConsecutiveFailures: fails,
		BreakerTrips:        trips,
		Polls:               p.polls,
		PollFailures:        p.pollFailures,
		Accepted:            p.accepted,
		Duplicates:          p.duplicates,
		Quarantined:         p.quarantined,
		Replayed:            p.replayed,
		Rollbacks:           p.rollbacks,
		JournalSeq:          p.journal.Seq(),
		AppliedSeq:          p.appliedSeq,
		JournalLag:          p.journal.Seq() - p.appliedSeq,
		Generation:          p.swapper.Generation(),
		LastAdvisory:        p.lastAdvisory,
		LastError:           p.lastError,
	}
}
