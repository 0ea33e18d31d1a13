package main

// riskroute explain — the batch front end to the daemon's attribution
// surface. Rather than reimplementing the decomposition and its JSON/GeoJSON
// encodings, the command boots the same serving world the daemon boots
// (riskroute.NewServer with identical synthetic-world inputs) and routes an
// in-process request through the same handler chain, then writes the raw
// response body. For the same world generation, `riskroute explain` and
// `curl riskrouted /v1/route?explain=1` are therefore byte-identical by
// construction — the parity the golden-fixture tests and the CI smoke test
// pin.

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"

	"riskroute"
)

// explainOut receives the response body (stdout; tests redirect it).
var explainOut io.Writer = os.Stdout

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network name")
	from := fs.String("from", "Houston", "source PoP name")
	to := fs.String("to", "Boston", "destination PoP name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	lambdaF := fs.Float64("lambda-f", 1e3, "forecast risk weight λ_f")
	storm := fs.String("storm", "", "active storm (Irene, Katrina, Sandy) for forecast risk")
	advisoryNum := fs.Int("advisory", 0, "advisory number within the storm (0 = peak advisory)")
	format := fs.String("format", "json", "output format: json or geojson")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: riskroute explain [flags] [FROM TO]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() >= 2 {
		*from, *to = fs.Arg(0), fs.Arg(1)
	}
	if *format != "json" && *format != "geojson" {
		return fmt.Errorf("unknown format %q (want json or geojson)", *format)
	}
	if w.spanRisk {
		// The serving world prices risk at PoPs only; a span-risk explanation
		// would silently drop the span layer the flag asked for.
		return fmt.Errorf("explain does not support -span-risk (the serving world has no span-risk layer)")
	}

	adv, err := pickAdvisory(*storm, *advisoryNum)
	if err != nil {
		return err
	}
	net, err := w.network(*network)
	if err != nil {
		return err
	}
	// The daemon's world, in process: default paper parameters (per-request
	// λ go in the query string, exactly as a daemon client would send them),
	// no result cache (explanations bypass it anyway), no tracing middleware
	// (the body is identical either way; telemetry flows via tel.Metrics).
	srv, err := riskroute.NewServer(riskroute.ServeConfig{
		Networks:       []*riskroute.Network{net},
		Blocks:         w.blocks,
		EventScale:     w.eventScale,
		Seed:           seedFlag,
		Workers:        workersFlag,
		CacheSize:      -1,
		DisableTracing: true,
		Metrics:        tel.Metrics,
		Trace:          tel.Trace,
		Logger:         tel.Logger,
		Health:         tel.Health,
	})
	if err != nil {
		return err
	}
	if adv != nil {
		if _, err := srv.ApplyParsed(adv, 0); err != nil {
			return err
		}
	}

	q := url.Values{
		"network":  {net.Name},
		"from":     {*from},
		"to":       {*to},
		"lambda_h": {strconv.FormatFloat(*lambdaH, 'g', -1, 64)},
		"lambda_f": {strconv.FormatFloat(*lambdaF, 'g', -1, 64)},
		"explain":  {"1"},
	}
	if *format == "geojson" {
		q.Set("format", "geojson")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/route?"+q.Encode(), nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("explain %s %s -> %s: %s", net.Name, *from, *to, errBody(rec.Body.Bytes(), rec.Code))
	}
	_, err = explainOut.Write(rec.Body.Bytes())
	return err
}

// errBody renders a failed in-process response for the terminal.
func errBody(body []byte, code int) string {
	if len(body) == 0 {
		return fmt.Sprintf("HTTP %d", code)
	}
	return fmt.Sprintf("HTTP %d: %s", code, body)
}
