package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"riskroute"
)

// cmdBake runs the full offline pipeline — hazard fit, census generation,
// per-network population assignment and historical PoP risks — and persists
// the hazard surfaces and per-network vectors as a versioned, checksummed
// binary world snapshot:
//
//	riskroute bake -o world.rrws
//	riskroute bake -o sprint.rrws -networks Sprint -blocks 4000 -event-scale 0.03
//	riskrouted -world-snapshot world.rrws   # boots in milliseconds
//
// The bake shares the serving daemon's warmup pipeline, so a daemon booted
// from the snapshot serves generation 1 bit-identical to one that fitted
// from scratch with the same -blocks / -event-scale / -seed / network set.
// The output is byte-deterministic: same inputs, same bytes, same digest.
func cmdBake(args []string) error {
	fs := flag.NewFlagSet("bake", flag.ExitOnError)
	w := addWorldFlags(fs)
	out := fs.String("o", "world.rrws", "output snapshot file (written atomically)")
	networks := fs.String("networks", "", "comma-separated subset of networks to bake (default: the full corpus)")
	fs.Parse(args)
	if w.spanRisk {
		return fmt.Errorf("bake does not support -span-risk: snapshots persist PoP-level risk vectors")
	}

	var nets []*riskroute.Network
	if w.topoFile != "" {
		f, err := os.Open(w.topoFile)
		if err != nil {
			return err
		}
		parsed, err := riskroute.ParseTopology(f)
		f.Close()
		if err != nil {
			return err
		}
		nets = parsed
	} else {
		nets = riskroute.BuiltinNetworks()
	}
	if *networks != "" {
		byName := make(map[string]*riskroute.Network, len(nets))
		for _, n := range nets {
			byName[n.Name] = n
		}
		var picked []*riskroute.Network
		for _, name := range strings.Split(*networks, ",") {
			name = strings.TrimSpace(name)
			n := byName[name]
			if n == nil {
				return fmt.Errorf("unknown network %q (try 'riskroute networks')", name)
			}
			picked = append(picked, n)
		}
		nets = picked
	}

	// bake always collects, like stats: the world-bake span tree and fit
	// metrics land in the telemetry report and the run manifest.
	tel.Arm()
	world, err := riskroute.BakeServeWorld(riskroute.ServeConfig{
		Networks:   nets,
		Blocks:     w.blocks,
		EventScale: w.eventScale,
		Seed:       seedFlag,
		Workers:    workersFlag,
		Metrics:    tel.Metrics,
		Trace:      tel.Trace,
		Health:     tel.Health,
		Logger:     tel.Logger,
	})
	if err != nil {
		return err
	}
	digest, err := riskroute.WriteWorldSnapshotFile(*out, world)
	if err != nil {
		return err
	}
	if tel.Ledger != nil {
		tel.Ledger.SetConfig("world-snapshot-digest", digest)
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("baked %s: %d catalogs, %d networks, %.1f MiB\n",
		*out, len(world.Catalogs), len(world.Networks), float64(info.Size())/(1<<20))
	fmt.Printf("  digest %s\n", digest)
	fmt.Printf("  boot it: riskrouted -world-snapshot %s -blocks %d -event-scale %g -seed %d\n",
		*out, w.blocks, w.eventScale, seedFlag)
	return nil
}
