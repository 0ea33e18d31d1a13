package main

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"riskroute/internal/obs"
	"riskroute/internal/resilience"
	"riskroute/internal/serve"
	worldsnap "riskroute/internal/snapshot"
)

// setupReps is how many times a run bakes, writes and boots the world;
// setup_s reports the median.
const setupReps = 5

// daemonConfig is riskrouted's serving configuration at its flag defaults
// with -log off: a metrics registry, a root trace, health wired to both,
// and a logger feeding only the flight recorder.
func daemonConfig(snapshotPath string) serve.Config {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(0)
	logger := slog.New(flight.Wrap(nil))
	health := resilience.NewHealth()
	health.AttachMetrics(reg)
	health.AttachLogger(logger)
	return serve.Config{
		Blocks:            20000,
		EventScale:        0.2,
		Seed:              1,
		WorldSnapshotPath: snapshotPath,
		MaxInFlight:       64,
		QueueTimeout:      100 * time.Millisecond,
		RequestTimeout:    15 * time.Second,
		CacheSize:         4096,
		SlowRequest:       250 * time.Millisecond,
		SLO: obs.SLOConfig{
			LatencyObjective: 100 * time.Millisecond,
			LatencyTarget:    0.99,
			ErrorTarget:      0.999,
		},
		Metrics: reg,
		Trace:   obs.NewTrace("riskrouted"),
		Logger:  logger,
		Health:  health,
	}
}

// bakeAndBoot bakes the default world, writes it to dir/world.rrws and
// boots a daemon-configured server from the file, as an operator would
// deploy riskrouted. It returns the server, the baked world and the time
// the three steps took.
func bakeAndBoot(dir string) (*serve.Server, *worldsnap.World, time.Duration, error) {
	path := filepath.Join(dir, "world.rrws")
	start := time.Now()
	world, err := serve.BakeWorld(serve.Config{Blocks: 20000, EventScale: 0.2, Seed: 1})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bake: %w", err)
	}
	if _, err := worldsnap.WriteFile(path, world); err != nil {
		return nil, nil, 0, fmt.Errorf("write snapshot: %w", err)
	}
	srv, _, err := bootServer(daemonConfig(path))
	if err != nil {
		return nil, nil, 0, err
	}
	return srv, world, time.Since(start), nil
}

// bootServer starts a server from cfg.WorldSnapshotPath and fails unless it
// took the snapshot path; it returns the boot time in seconds.
func bootServer(cfg serve.Config) (*serve.Server, float64, error) {
	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	secs := time.Since(start).Seconds()
	if b := srv.Boot(); b.Path != "snapshot" {
		return nil, 0, fmt.Errorf("boot took the %s path, not the snapshot (%s)", b.Path, b.FallbackReason)
	}
	return srv, secs, nil
}

// setupRefs is how many calibration tasks run before and after each
// set-up pass.
const setupRefs = 100

// setup runs setupReps bake → write → boot passes and keeps the last
// server and world. It returns each pass's time and the host slowdown
// measured by the calibration tasks around it.
func setup(dir string) (*serve.Server, *worldsnap.World, []time.Duration, []float64, error) {
	var srv *serve.Server
	var world *worldsnap.World
	var times []time.Duration
	var slow []float64
	ref := newRefGraph()
	calibrate := func() []time.Duration {
		ds := make([]time.Duration, setupRefs)
		for i := range ds {
			ds[i], _ = ref.run()
		}
		return ds
	}
	for r := 0; r < setupReps; r++ {
		srv, world = nil, nil // let the previous pass's world be collected
		before := calibrate()
		s, w, t, err := bakeAndBoot(dir)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		srv, world = s, w
		times = append(times, t)
		slow = append(slow, slowdown(append(before, calibrate()...)))
	}
	return srv, world, times, slow, nil
}
