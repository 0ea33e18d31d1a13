// Command riskrouted is the online RiskRoute serving daemon: it warms the
// hazard and population world once at startup, then serves risk-aware
// routing queries over HTTP and re-prices routes live as NHC advisories
// are POSTed to it.
//
//	riskrouted -addr :8080
//	curl 'localhost:8080/v1/route?network=Level3&from=Houston&to=Boston'
//	riskrouted -emit-advisory Sandy:30 | curl --data-binary @- localhost:8080/v1/advisory
//	curl 'localhost:8080/v1/route?network=Level3&from=Houston&to=Boston'   # re-priced
//
// Endpoints: /v1/route, /v1/ratio, /v1/pops, /v1/risk, /v1/advisory
// (GET current, POST ingest), /v1/healthz, /v1/readyz, /v1/ingest,
// /v1/generations (swap timeline), /v1/slo (burn rates), /metrics
// (Prometheus exposition), /debug/requests (tail-sampled slow/errored
// requests). Every response carries an X-Request-Id header.
//
// The daemon doubles as its own load generator:
//
//	riskrouted -loadgen -target http://localhost:8080 -clients 32 -duration 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"riskroute"
	"riskroute/internal/runtel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "riskrouted:", err)
		os.Exit(1)
	}
}

// options carries the parsed daemon configuration.
type options struct {
	addr        string
	networks    string
	blocks      int
	eventScale  float64
	seed        uint64
	workers     int
	worldSnap   string
	maxInFlight int
	queueTO     time.Duration
	requestTO   time.Duration
	drainTO     time.Duration
	cacheSize   int

	debugAddr     string
	reqIDSeed     uint64
	slowRequest   time.Duration
	sloLatency    time.Duration
	sloLatencyTgt float64
	sloErrorTgt   float64

	advisoryFeed     string
	journalDir       string
	pollInterval     time.Duration
	pollTO           time.Duration
	backoffMax       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	logMode          string
	telemetry        string
	runsDir          string

	emitAdvisory string
	loadgen      bool
	target       string
	clients      int
	duration     time.Duration
	lgNetwork    string
	lgSeed       uint64
}

func run(args []string) error {
	fs := flag.NewFlagSet("riskrouted", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&o.networks, "networks", "", "comma-separated subset of embedded networks to serve (default all 23)")
	fs.IntVar(&o.blocks, "blocks", 20000, "synthetic census blocks")
	fs.Float64Var(&o.eventScale, "event-scale", 0.2, "disaster catalog scale (1.0 = paper size)")
	fs.Uint64Var(&o.seed, "seed", 1, "world seed")
	fs.IntVar(&o.workers, "workers", 0, "max goroutines for warmup and engine sweeps (0 = all cores)")
	fs.StringVar(&o.worldSnap, "world-snapshot", "", "boot the world from a baked snapshot file (`riskroute bake`) instead of fitting; a rejected snapshot falls back to a full fit")
	fs.IntVar(&o.maxInFlight, "max-inflight", 64, "max concurrently executing compute requests")
	fs.DurationVar(&o.queueTO, "queue-timeout", 100*time.Millisecond, "max wait for an admission slot before 429")
	fs.DurationVar(&o.requestTO, "request-timeout", 15*time.Second, "max time from arrival to the start of engine work, queue wait included")
	fs.DurationVar(&o.drainTO, "drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	fs.IntVar(&o.cacheSize, "cache-size", 4096, "result cache entries per index: raw query text and parsed query (negative disables)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve pprof/expvar/metrics on a second listener (host:port; empty disables)")
	fs.Uint64Var(&o.reqIDSeed, "reqid-seed", 0, "request-ID generator seed (non-zero pins the exact ID sequence; 0 randomizes)")
	fs.DurationVar(&o.slowRequest, "slow-request", 250*time.Millisecond, "tail-sample successful requests at least this slow into /debug/requests")
	fs.DurationVar(&o.sloLatency, "slo-latency", 100*time.Millisecond, "SLO latency objective: requests slower than this burn the latency budget")
	fs.Float64Var(&o.sloLatencyTgt, "slo-latency-target", 0.99, "fraction of requests that must beat -slo-latency")
	fs.Float64Var(&o.sloErrorTgt, "slo-error-target", 0.999, "availability objective: fraction of requests that must not 5xx")
	fs.StringVar(&o.advisoryFeed, "advisory-feed", "", "continuous advisory feed: a directory of *.txt bulletins or an http(s) URL (requires -journal-dir)")
	fs.StringVar(&o.journalDir, "journal-dir", "", "advisory write-ahead journal directory; set alone to replay a journal at boot without polling")
	fs.DurationVar(&o.pollInterval, "poll-interval", 10*time.Second, "healthy-feed poll cadence")
	fs.DurationVar(&o.pollTO, "poll-timeout", 5*time.Second, "per-attempt feed poll deadline")
	fs.DurationVar(&o.backoffMax, "backoff-max", 2*time.Minute, "cap on the exponential feed retry delay")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 5, "consecutive feed failures that trip the circuit breaker")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 30*time.Second, "how long a tripped breaker stays open before probing the feed")
	fs.StringVar(&o.logMode, "log", "text", "structured log stream to stderr: text, json, or off")
	fs.StringVar(&o.telemetry, "telemetry", "", "emit a metrics report to stderr on exit: text or json")
	fs.StringVar(&o.runsDir, "runs", "", "write a run manifest for the server lifetime under dir/<runID>/")
	fs.StringVar(&o.emitAdvisory, "emit-advisory", "", "print an embedded storm's advisory text (Storm or Storm:N) and exit")
	fs.BoolVar(&o.loadgen, "loadgen", false, "run as a load generator against -target instead of serving")
	fs.StringVar(&o.target, "target", "http://localhost:8080", "loadgen: base URL of a running riskrouted")
	fs.IntVar(&o.clients, "clients", 16, "loadgen: concurrent clients")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "loadgen: run length")
	fs.StringVar(&o.lgNetwork, "loadgen-network", "Level3", "loadgen: network to query")
	fs.Uint64Var(&o.lgSeed, "loadgen-seed", 1, "loadgen: RNG seed for pair selection")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.emitAdvisory != "" {
		return emitAdvisory(os.Stdout, o.emitAdvisory)
	}
	if o.loadgen {
		return runLoadgen(os.Stdout, o)
	}
	return serveDaemon(o, fs)
}

// emitAdvisory prints one bulletin of an embedded storm's generated corpus:
// "Sandy:30" is advisory 30, bare "Sandy" the peak-wind advisory. The text
// is exactly what the replay pipeline parses, so it is the natural payload
// for POST /v1/advisory.
func emitAdvisory(w io.Writer, spec string) error {
	name, numStr, hasNum := strings.Cut(spec, ":")
	track := riskroute.HurricaneByName(name)
	if track == nil {
		return fmt.Errorf("unknown storm %q (embedded: Irene, Katrina, Sandy)", name)
	}
	replay, err := riskroute.LoadHurricaneReplay(track)
	if err != nil {
		return err
	}
	pick := -1
	if hasNum {
		n, err := strconv.Atoi(numStr)
		if err != nil || n < 1 || n > len(replay.Advisories) {
			return fmt.Errorf("storm %s has advisories 1..%d, got %q", name, len(replay.Advisories), numStr)
		}
		pick = n - 1
	} else {
		best := 0.0
		for i, a := range replay.Advisories {
			if a.MaxWindMPH > best {
				best, pick = a.MaxWindMPH, i
			}
		}
	}
	_, err = io.WriteString(w, replay.Advisories[pick].Text())
	return err
}

// serveDaemon warms the world, serves until SIGTERM/SIGINT, then drains.
// The run lifecycle is always armed (SetLog arms it) and is finished on
// every exit path.
func serveDaemon(o *options, fs *flag.FlagSet) (runErr error) {
	run := &runtel.Run{Prog: "riskrouted", Name: "riskrouted", Report: o.telemetry}
	defer func() { run.Finish(fs, runErr) }()
	if err := run.SetLog(o.logMode, os.Stderr); err != nil {
		return err
	}
	if o.runsDir != "" {
		if err := run.OpenLedger(o.runsDir, os.Args[1:]); err != nil {
			return err
		}
	}

	var nets []*riskroute.Network
	if o.networks != "" {
		for _, name := range strings.Split(o.networks, ",") {
			name = strings.TrimSpace(name)
			n := riskroute.BuiltinNetwork(name)
			if n == nil {
				return fmt.Errorf("unknown network %q", name)
			}
			nets = append(nets, n)
		}
	}

	srv, err := riskroute.NewServer(riskroute.ServeConfig{
		Networks:          nets,
		Blocks:            o.blocks,
		EventScale:        o.eventScale,
		Seed:              o.seed,
		Workers:           o.workers,
		WorldSnapshotPath: o.worldSnap,
		MaxInFlight:       o.maxInFlight,
		QueueTimeout:      o.queueTO,
		RequestTimeout:    o.requestTO,
		CacheSize:         o.cacheSize,
		RequestIDSeed:     o.reqIDSeed,
		SlowRequest:       o.slowRequest,
		SLO: riskroute.SLOConfig{
			LatencyObjective: o.sloLatency,
			LatencyTarget:    o.sloLatencyTgt,
			ErrorTarget:      o.sloErrorTgt,
		},
		Metrics: run.Metrics,
		Trace:   run.Trace,
		Logger:  run.Logger,
		Health:  run.Health,
	})
	if err != nil {
		return err
	}

	// Boot-path report: operators (and the CI bake smoke) read this line to
	// verify a node actually took the fast path. The ledger additionally
	// records the snapshot file's checksum as an input and its digest as
	// config, so a run manifest pins exactly which baked world served.
	if boot := srv.Boot(); boot.Path == "snapshot" {
		fmt.Printf("riskrouted: world booted from snapshot %s (digest %.12s) in %.1f ms\n",
			boot.SnapshotFile, boot.SnapshotDigest, boot.LoadSeconds*1e3)
		if run.Ledger != nil {
			f, err := os.Open(o.worldSnap)
			if err != nil {
				return err
			}
			err = run.Ledger.AddInput("world-snapshot:"+o.worldSnap, f)
			f.Close()
			if err != nil {
				return err
			}
			run.Ledger.SetConfig("world-snapshot-digest", boot.SnapshotDigest)
		}
	} else if boot.Fallback {
		fmt.Printf("riskrouted: world snapshot rejected (%s); booted by full fit in %.1f s\n",
			boot.FallbackReason, boot.FitSeconds)
	}

	if o.debugAddr != "" {
		addr, err := run.ServeDebug(o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("riskrouted: debug listener on http://%s (pprof, expvar, /metrics)\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Continuous ingestion: recover the journal to the pre-crash generation
	// BEFORE accepting traffic, then start polling the feed (if one is
	// configured — -journal-dir alone is a recovery-only boot).
	if o.advisoryFeed != "" && o.journalDir == "" {
		return errors.New("-advisory-feed requires -journal-dir (the journal is what makes ingestion crash-safe)")
	}
	if o.journalDir != "" {
		var src riskroute.IngestSource
		if o.advisoryFeed != "" {
			src, err = riskroute.NewIngestSource(o.advisoryFeed)
			if err != nil {
				return err
			}
		}
		poller, err := riskroute.NewIngestPoller(riskroute.IngestConfig{
			Source:           src,
			JournalDir:       o.journalDir,
			Interval:         o.pollInterval,
			PollTimeout:      o.pollTO,
			BackoffMax:       o.backoffMax,
			BreakerThreshold: o.breakerThreshold,
			BreakerCooldown:  o.breakerCooldown,
			Seed:             o.seed,
			Metrics:          run.Metrics,
			Trace:            run.Trace,
			Logger:           run.Logger,
			Health:           run.Health,
		}, srv)
		if err != nil {
			return err
		}
		defer poller.Close()
		if _, err := poller.Recover(); err != nil {
			return err
		}
		srv.AttachIngest(func() any { return poller.Status() })
		fmt.Printf("riskrouted: journal %s recovered to generation %d\n", o.journalDir, srv.Generation())
		if src != nil {
			go poller.Run(ctx)
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripts (and the CI smoke job)
	// can scrape the port when -addr used :0.
	fmt.Printf("riskrouted: listening on http://%s (generation %d)\n", ln.Addr(), srv.Generation())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			runErr = err
		}
	case <-ctx.Done():
		// Graceful drain: flip readiness first so load balancers stop
		// routing here, then let in-flight requests finish — but never
		// longer than -drain-timeout, so a wedged handler cannot turn
		// SIGTERM into a hung process.
		srv.Drain()
		shCtx, cancel := context.WithTimeout(context.Background(), o.drainTO)
		err := httpSrv.Shutdown(shCtx)
		cancel()
		if err != nil {
			if abandoned := srv.InFlight(); abandoned > 0 {
				run.Logger.Warn("drain timeout expired; abandoning in-flight requests",
					"abandoned", abandoned, "drain_timeout", o.drainTO.String())
			}
			runErr = fmt.Errorf("drain: %w", err)
		}
	}
	return runErr
}
