package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/resilience"
)

// fakeSwapper implements Swapper in memory and records every generation it
// ever published, so tests can assert monotonicity and apply order without
// building a serving world.
type fakeSwapper struct {
	mu       sync.Mutex
	gen      uint64
	applied  []string      // advisory keys in publish order
	history  []uint64      // every generation ever published
	failNth  map[int]error // 1-based ApplyParsed call → error before publish
	panicNth map[int]bool  // 1-based ApplyParsed call → panic before publish
	panicPub map[int]bool  // 1-based ApplyParsed call → publish, then panic
	calls    int
	reverts  int
}

func (f *fakeSwapper) ApplyParsed(adv *forecast.Advisory, _ time.Duration) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if err := f.failNth[f.calls]; err != nil {
		return f.gen, err
	}
	if f.panicNth[f.calls] {
		panic(fmt.Sprintf("injected pre-publish panic on call %d", f.calls))
	}
	f.gen++
	f.history = append(f.history, f.gen)
	f.applied = append(f.applied, advKey(adv))
	if f.panicPub[f.calls] {
		panic(fmt.Sprintf("injected post-publish panic on call %d", f.calls))
	}
	return f.gen, nil
}

func (f *fakeSwapper) RevertAdvisory(fromGen uint64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fromGen != f.gen {
		return f.gen, fmt.Errorf("revert from generation %d but serving %d", fromGen, f.gen)
	}
	f.gen++
	f.history = append(f.history, f.gen)
	if n := len(f.applied); n > 0 {
		f.applied = f.applied[:n-1]
	}
	f.reverts++
	return f.gen, nil
}

func (f *fakeSwapper) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeSwapper) snapshot() (gens []uint64, applied []string, reverts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.history...), append([]string(nil), f.applied...), f.reverts
}

// scriptSource scripts Poll behavior per call.
type scriptSource struct {
	name string
	fn   func(ctx context.Context) ([]string, error)
}

func (s *scriptSource) Poll(ctx context.Context) ([]string, error) { return s.fn(ctx) }
func (s *scriptSource) Name() string                               { return s.name }

// sandyTexts returns the first n advisories of the embedded Sandy corpus.
func sandyTexts(t *testing.T, n int) []string {
	t.Helper()
	texts := forecast.GenerateCorpus(datasets.HurricaneByName("Sandy"))
	if len(texts) < n {
		t.Fatalf("Sandy corpus has %d advisories, need %d", len(texts), n)
	}
	return texts[:n]
}

// writeFeedDir materializes texts as a lexicographically ordered feed dir.
func writeFeedDir(t *testing.T, texts []string) string {
	t.Helper()
	dir := t.TempDir()
	for i, text := range texts {
		name := fmt.Sprintf("adv-%03d.txt", i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func newTestPoller(t *testing.T, cfg Config, sw Swapper) *Poller {
	t.Helper()
	if cfg.JournalDir == "" {
		cfg.JournalDir = t.TempDir()
	}
	p, err := NewPoller(cfg, sw)
	if err != nil {
		t.Fatalf("NewPoller: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func mustRecover(t *testing.T, p *Poller) int {
	t.Helper()
	n, err := p.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return n
}

func TestPollerIngestFlow(t *testing.T) {
	texts := sandyTexts(t, 3)
	feed := writeFeedDir(t, texts)
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed)}, sw)
	if n := mustRecover(t, p); n != 0 {
		t.Fatalf("fresh journal replayed %d", n)
	}

	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Accepted != 3 || st.Quarantined != 0 || st.Duplicates != 0 {
		t.Fatalf("status after poll: %+v", st)
	}
	if st.JournalSeq != 3 || st.AppliedSeq != 3 || st.JournalLag != 0 || st.Generation != 3 {
		t.Fatalf("seq/gen after poll: %+v", st)
	}
	gens, applied, _ := sw.snapshot()
	if len(applied) != 3 {
		t.Fatalf("applied %d advisories", len(applied))
	}
	for i, text := range texts {
		adv, err := forecast.ParseAdvisory(text)
		if err != nil {
			t.Fatal(err)
		}
		if applied[i] != advKey(adv) {
			t.Fatalf("apply order: got %v", applied)
		}
	}
	assertMonotonic(t, gens)

	// A second poll delivers nothing new and changes nothing.
	p.pollOnce(context.Background(), 2)
	if st := p.Status(); st.Accepted != 3 || st.Duplicates != 0 || st.Polls != 2 {
		t.Fatalf("status after idle poll: %+v", st)
	}
}

func TestPollerDedupe(t *testing.T) {
	texts := sandyTexts(t, 1)
	// The same bulletin delivered under two different file names: one swap.
	feed := writeFeedDir(t, []string{texts[0], texts[0]})
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed)}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Accepted != 1 || st.Duplicates != 1 {
		t.Fatalf("dedupe: %+v", st)
	}
	if st.JournalSeq != 1 {
		t.Fatalf("duplicate reached the journal: seq %d", st.JournalSeq)
	}
	if sw.Generation() != 1 {
		t.Fatalf("duplicate swapped: generation %d", sw.Generation())
	}
}

func TestPollerValidationQuarantine(t *testing.T) {
	texts := sandyTexts(t, 1)
	feed := writeFeedDir(t, []string{"THIS IS NOT A BULLETIN", texts[0]})
	sw := &fakeSwapper{}
	jdir := t.TempDir()
	p := newTestPoller(t, Config{Source: NewDirSource(feed), JournalDir: jdir}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Accepted != 1 || st.Quarantined != 1 {
		t.Fatalf("quarantine: %+v", st)
	}
	// The invalid payload never touched the journal.
	if st.JournalSeq != 1 {
		t.Fatalf("journal seq %d, want 1", st.JournalSeq)
	}
	assertQuarantined(t, jdir, "THIS IS NOT A BULLETIN", "validate:")
	if st.LastError == "" {
		t.Fatal("quarantine left no last_error")
	}
}

// TestPollerJournalBeforeSwap pins the ordering contract: an advisory whose
// swap fails is already durable in the journal, so a restart retries it.
func TestPollerJournalBeforeSwap(t *testing.T) {
	texts := sandyTexts(t, 1)
	feed := writeFeedDir(t, texts)
	jdir := t.TempDir()
	sw := &fakeSwapper{failNth: map[int]error{1: errors.New("rebuild exploded")}}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), JournalDir: jdir}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Accepted != 0 || st.Quarantined != 1 {
		t.Fatalf("failed swap: %+v", st)
	}
	if st.JournalSeq != 1 {
		t.Fatal("advisory not journaled before the swap attempt")
	}
	assertQuarantined(t, jdir, texts[0], "rebuild exploded")
	p.Close()

	// Restart: the journaled advisory is retried and lands this time.
	sw2 := &fakeSwapper{}
	p2 := newTestPoller(t, Config{JournalDir: jdir}, sw2)
	if n := mustRecover(t, p2); n != 1 {
		t.Fatalf("replay applied %d records, want 1", n)
	}
	if sw2.Generation() != 1 {
		t.Fatalf("post-restart generation %d", sw2.Generation())
	}
	if st := p2.Status(); st.Replayed != 1 {
		t.Fatalf("replayed counter: %+v", st)
	}
}

func TestPollerSwapPanicQuarantines(t *testing.T) {
	texts := sandyTexts(t, 2)
	feed := writeFeedDir(t, texts)
	jdir := t.TempDir()
	sw := &fakeSwapper{panicNth: map[int]bool{1: true}}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), JournalDir: jdir}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	// Advisory 1 panicked pre-publish: quarantined, no generation consumed,
	// and the poll loop survived to apply advisory 2.
	st := p.Status()
	if st.Accepted != 1 || st.Quarantined != 1 {
		t.Fatalf("panic handling: %+v", st)
	}
	if sw.Generation() != 1 {
		t.Fatalf("generation %d after one good swap", sw.Generation())
	}
	assertQuarantined(t, jdir, texts[0], "panicked")
	if !strings.Contains(st.LastError, "degraded") && !strings.Contains(st.LastError, "panic") {
		t.Fatalf("last_error %q does not surface the panic", st.LastError)
	}
	if _, _, reverts := sw.snapshot(); reverts != 0 {
		t.Fatalf("pre-publish panic triggered %d reverts", reverts)
	}
}

// TestPollerPostPublishPanicRollsBack covers a panic that escapes AFTER the
// pointer moved: the published world is suspect and must be reverted.
func TestPollerPostPublishPanicRollsBack(t *testing.T) {
	texts := sandyTexts(t, 1)
	feed := writeFeedDir(t, texts)
	sw := &fakeSwapper{panicPub: map[int]bool{1: true}}
	p := newTestPoller(t, Config{Source: NewDirSource(feed)}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	gens, applied, reverts := sw.snapshot()
	if reverts != 1 {
		t.Fatalf("reverts=%d", reverts)
	}
	if len(applied) != 0 {
		t.Fatalf("reverted advisory still applied: %v", applied)
	}
	assertMonotonic(t, gens)
	if sw.Generation() != 2 {
		t.Fatalf("rollback must land on a FRESH generation, got %d", sw.Generation())
	}
	if st := p.Status(); st.Rollbacks != 1 || st.Quarantined != 1 {
		t.Fatalf("rollback status: %+v", st)
	}
}

// TestPollerPostSwapVerificationRollback drives the rollback path through
// the resilience injector's post-publish key space.
func TestPollerPostSwapVerificationRollback(t *testing.T) {
	texts := sandyTexts(t, 2)
	feed := writeFeedDir(t, texts)
	inj := resilience.NewInjector(7)
	inj.EnableKeys(resilience.PointIngestSwap, resilience.ForceError, 1+resilience.PostSwapKeyOffset)
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), Injector: inj}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	// Advisory 1 (journal seq 1) published as generation 1, failed
	// post-publish verification, rolled back as generation 2; advisory 2
	// then published as generation 3.
	gens, applied, reverts := sw.snapshot()
	if reverts != 1 || len(applied) != 1 {
		t.Fatalf("reverts=%d applied=%v", reverts, applied)
	}
	assertMonotonic(t, gens)
	st := p.Status()
	if st.Generation != 3 || st.Rollbacks != 1 || st.Accepted != 1 || st.Quarantined != 1 {
		t.Fatalf("post-swap rollback status: %+v", st)
	}
}

func TestPollerPreSwapInjectionSkipsApply(t *testing.T) {
	texts := sandyTexts(t, 1)
	feed := writeFeedDir(t, texts)
	inj := resilience.NewInjector(7)
	inj.EnableKeys(resilience.PointIngestSwap, resilience.ForceError, 1)
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), Injector: inj}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	if sw.calls != 0 {
		t.Fatalf("pre-swap injection still called ApplyParsed %d times", sw.calls)
	}
	if st := p.Status(); st.Quarantined != 1 || st.JournalSeq != 1 {
		t.Fatalf("pre-swap injection status: %+v", st)
	}
}

func TestPollerJournalInjectionQuarantines(t *testing.T) {
	texts := sandyTexts(t, 1)
	feed := writeFeedDir(t, texts)
	inj := resilience.NewInjector(7)
	inj.EnableKeys(resilience.PointIngestJournal, resilience.ForceError, 1)
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), Injector: inj}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Quarantined != 1 || st.JournalSeq != 0 || sw.calls != 0 {
		t.Fatalf("journal injection: %+v calls=%d", st, sw.calls)
	}
}

func TestPollerRunRequiresRecover(t *testing.T) {
	jdir := t.TempDir()
	j, _, err := OpenJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(sandyTexts(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	p := newTestPoller(t, Config{Source: NewDirSource(t.TempDir()), JournalDir: jdir}, &fakeSwapper{})
	if err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("Run before Recover: err=%v", err)
	}
}

func TestPollerBreakerTripAndRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	feedDown := errors.New("connection refused")
	healthy := false
	src := &scriptSource{name: "script", fn: func(ctx context.Context) ([]string, error) {
		if healthy {
			return nil, nil
		}
		return nil, feedDown
	}}
	p := newTestPoller(t, Config{
		Source:           src,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		now:              clk.now,
	}, &fakeSwapper{})
	mustRecover(t, p)
	ctx := context.Background()

	p.pollOnce(ctx, 1)
	if st := p.Status(); st.Breaker != "closed" || st.PollFailures != 1 {
		t.Fatalf("after failure 1: %+v", st)
	}
	p.pollOnce(ctx, 2)
	if st := p.Status(); st.Breaker != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after failure 2: %+v", st)
	}

	// Open: attempts are skipped entirely — the feed is not polled.
	p.pollOnce(ctx, 3)
	if st := p.Status(); st.Polls != 2 {
		t.Fatalf("open breaker still polled: %+v", st)
	}

	// Cooldown elapses; the probe fails; the breaker re-opens (trip #2).
	clk.advance(10 * time.Second)
	p.pollOnce(ctx, 4)
	if st := p.Status(); st.Breaker != "open" || st.BreakerTrips != 2 {
		t.Fatalf("failed probe: %+v", st)
	}

	// Feed heals; the next probe closes the breaker.
	healthy = true
	clk.advance(10 * time.Second)
	p.pollOnce(ctx, 5)
	if st := p.Status(); st.Breaker != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("recovery: %+v", st)
	}
}

// TestPollerAttemptInjection pins that a ForceError rule at ingest-poll
// keyed by attempt number fails the whole attempt even though the source
// succeeded — the injector models feed-level faults without a fake source.
func TestPollerAttemptInjection(t *testing.T) {
	inj := resilience.NewInjector(7)
	inj.EnableKeys(resilience.PointIngestPoll, resilience.ForceError, 2)
	src := &scriptSource{name: "ok", fn: func(ctx context.Context) ([]string, error) { return nil, nil }}
	p := newTestPoller(t, Config{Source: src, Injector: inj}, &fakeSwapper{})
	mustRecover(t, p)

	p.pollOnce(context.Background(), 1)
	p.pollOnce(context.Background(), 2)
	p.pollOnce(context.Background(), 3)
	st := p.Status()
	if st.PollFailures != 1 {
		t.Fatalf("injected attempt failure: %+v", st)
	}
	if !strings.Contains(st.LastError, "injected") {
		t.Fatalf("last_error %q is not the injected fault", st.LastError)
	}
}

// TestPollerCorruptItemInjection mangles one advisory in flight via the
// injector's item key space: it must quarantine while its neighbors apply.
func TestPollerCorruptItemInjection(t *testing.T) {
	texts := sandyTexts(t, 3)
	feed := writeFeedDir(t, texts)
	inj := resilience.NewInjector(7)
	inj.EnableKeys(resilience.PointIngestPoll, resilience.Corrupt, 2) // second accepted item
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{Source: NewDirSource(feed), Injector: inj}, sw)
	mustRecover(t, p)
	p.pollOnce(context.Background(), 1)

	st := p.Status()
	if st.Accepted+st.Quarantined != 3 {
		t.Fatalf("items lost: %+v", st)
	}
	if st.Quarantined != 1 {
		t.Fatalf("corrupt item not quarantined: %+v", st)
	}
	if inj.Fired(resilience.PointIngestPoll) == 0 {
		t.Fatal("corrupt rule never fired")
	}
}

func TestPollerRunLoop(t *testing.T) {
	texts := sandyTexts(t, 4)
	feed := writeFeedDir(t, texts)
	sw := &fakeSwapper{}
	p := newTestPoller(t, Config{
		Source:   NewDirSource(feed),
		Interval: time.Millisecond,
	}, sw)
	mustRecover(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for p.Status().Accepted < 4 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("run loop stalled: %+v", p.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := p.Status(); st.Generation != 4 || st.JournalLag != 0 {
		t.Fatalf("final status: %+v", st)
	}
}

// assertMonotonic fails unless gens is strictly increasing by exactly one —
// no gaps (a gap means a generation was skipped) and no repeats (a repeat
// means two worlds shared a generation).
func assertMonotonic(t *testing.T, gens []uint64) {
	t.Helper()
	for i, g := range gens {
		if g != uint64(i+1) {
			t.Fatalf("generation history not monotonic: %v", gens)
		}
	}
}

// assertQuarantined fails unless text sits in the dead-letter directory
// with a reason file containing wantReason.
func assertQuarantined(t *testing.T, journalDir, text, wantReason string) {
	t.Helper()
	// Mirror quarantine.Put's content addressing.
	q, err := newQuarantine(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("quarantine directory is empty")
	}
	entries, err := os.ReadDir(filepath.Join(journalDir, quarantineDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".txt" {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(journalDir, quarantineDirName, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != text {
			continue
		}
		reasonPath := strings.TrimSuffix(e.Name(), ".txt") + ".reason"
		reason, err := os.ReadFile(filepath.Join(journalDir, quarantineDirName, reasonPath))
		if err != nil {
			t.Fatalf("payload quarantined without a reason file: %v", err)
		}
		if !strings.Contains(string(reason), wantReason) {
			t.Fatalf("quarantine reason %q does not mention %q", reason, wantReason)
		}
		return
	}
	t.Fatalf("payload not found in quarantine")
}
