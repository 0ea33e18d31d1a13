package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"riskroute"
	"riskroute/internal/stats"
)

// runLoadgen drives a running riskrouted with -clients concurrent clients
// for -duration, each issuing /v1/route queries over random PoP pairs of
// -loadgen-network, and prints throughput, latency percentiles, and the
// status-code breakdown. 429s are counted separately from errors: shedding
// load under pressure is the admission controller working, not a failure.
func runLoadgen(w io.Writer, o *options) error {
	if o.clients < 1 {
		return fmt.Errorf("loadgen: -clients must be at least 1, got %d", o.clients)
	}
	if o.duration <= 0 {
		return fmt.Errorf("loadgen: -duration must be positive, got %s", o.duration)
	}
	base, err := url.Parse(o.target)
	if err != nil {
		return fmt.Errorf("loadgen: bad -target: %w", err)
	}
	client := &http.Client{Timeout: o.requestTO}

	pops, err := fetchPoPs(client, base, o.lgNetwork)
	if err != nil {
		return err
	}
	if len(pops) < 2 {
		return fmt.Errorf("loadgen: network %s has %d PoPs; need at least 2", o.lgNetwork, len(pops))
	}
	fmt.Fprintf(w, "loadgen: %d clients x %s against %s (%s, %d PoPs)\n",
		o.clients, o.duration, base, o.lgNetwork, len(pops))

	// Latencies accumulate into a shared concurrency-safe histogram; the
	// percentiles below come from Histogram.Quantile — the same estimator
	// the daemon's SLO engine uses — instead of a sorted sample slice.
	var (
		ok, throttled, failed atomic.Int64
		maxLatencyNS          atomic.Int64
		latencies             = riskroute.NewHistogram(riskroute.LatencyBuckets())
	)
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Per-client RNG: deterministic pair sequence per (seed, client).
			rng := stats.NewRNG(stats.SplitMix64(stats.SplitMix64(o.lgSeed) + uint64(id)))
			for time.Now().Before(deadline) {
				i := rng.Intn(len(pops))
				j := rng.Intn(len(pops) - 1)
				if j >= i {
					j++
				}
				u := *base
				u.Path = "/v1/route"
				u.RawQuery = url.Values{
					"network": {o.lgNetwork},
					"from":    {pops[i]},
					"to":      {pops[j]},
				}.Encode()
				start := time.Now()
				resp, err := client.Get(u.String())
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok.Add(1)
					dur := time.Since(start)
					latencies.Observe(dur.Seconds())
					for {
						cur := maxLatencyNS.Load()
						if int64(dur) <= cur || maxLatencyNS.CompareAndSwap(cur, int64(dur)) {
							break
						}
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					throttled.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	total := ok.Load() + throttled.Load() + failed.Load()
	fmt.Fprintf(w, "loadgen: %d requests in %s (%.1f req/s)\n",
		total, o.duration, float64(total)/o.duration.Seconds())
	fmt.Fprintf(w, "loadgen: %d ok, %d throttled (429), %d failed\n",
		ok.Load(), throttled.Load(), failed.Load())
	if latencies.Count() > 0 {
		q := func(p float64) time.Duration {
			return time.Duration(latencies.Quantile(p) * float64(time.Second)).Round(time.Microsecond)
		}
		fmt.Fprintf(w, "loadgen: latency p50=%s p90=%s p99=%s max=%s\n",
			q(0.50), q(0.90), q(0.99),
			time.Duration(maxLatencyNS.Load()).Round(time.Microsecond))
	}
	if failed.Load() > 0 {
		return fmt.Errorf("loadgen: %d requests failed", failed.Load())
	}
	return nil
}

// fetchPoPs asks the target for the PoP names of one network.
func fetchPoPs(client *http.Client, base *url.URL, network string) ([]string, error) {
	u := *base
	u.Path = "/v1/pops"
	u.RawQuery = url.Values{"network": {network}}.Encode()
	resp, err := client.Get(u.String())
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetch PoPs: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("loadgen: fetch PoPs: %s: %s", resp.Status, body)
	}
	var body struct {
		PoPs []struct {
			Name string `json:"name"`
		} `json:"pops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("loadgen: decode PoPs: %w", err)
	}
	names := make([]string, len(body.PoPs))
	for i, e := range body.PoPs {
		names[i] = e.Name
	}
	return names, nil
}
