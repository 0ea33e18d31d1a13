// Package scenario generates seeded, deterministic disaster-scenario
// ensembles and sweeps them through the routing engine into per-network
// outage-risk distributions. The paper evaluates RiskRoute by replaying two
// historical hurricanes — point estimates; production risk analysis wants
// distributions over thousands of plausible futures.
//
// # Scenario families
//
// Five families, each grounded in the literature the ROADMAP names:
//
//   - PerturbedTrack: a historical storm's parsed NHC advisory sequence
//     with one coherent whole-track jitter — position offset, intensity
//     factor, wind-radii factor — per scenario (Monte-Carlo track
//     ensembles around the best track).
//   - GenesisTrack: a synthetic storm whose genesis point is drawn off the
//     fitted peak-season hurricane KDE surface by inverse-transform
//     sampling, then marched northeastward with jittered heading, speed,
//     and a ramp-peak-decay intensity envelope.
//   - LineCut: a random great-circle chord over the conterminous-US region
//     with a corridor half-width (Saito's geometric line-cut disasters).
//   - DiskOutage: a random disk outage over the region (Saito).
//   - RegionalFailure: an EMP-style correlated regional failure (Gold &
//     Cohen) that additionally severs every link with an endpoint inside
//     the disk, amplified across providers by interdomain.RegionalImpact.
//
// # Determinism rules
//
// Every scenario owns a private SplitMix64 stream derived from (ensemble
// seed, family, index within family) — independent of other families'
// counts, of the worker count, and of wall clock. Generation is sequential;
// evaluation parallelizes over scenarios with parallel.Map's slot-writing
// discipline and reduces in scenario order, so ensembles are bit-identical
// at any worker count. Track scenarios compile to overlays through
// forecast.RiskModel.PoPRisks — the exact single-advisory machinery the
// `riskroute route -storm` path uses — so per-scenario route costs are
// bit-identical to a single-advisory run over the same advisory.
package scenario

import (
	"fmt"
	"math"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/obs"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// Family identifies one scenario-generation model.
type Family int

const (
	// PerturbedTrack jitters a historical hurricane's advisory sequence.
	PerturbedTrack Family = iota
	// GenesisTrack synthesizes a storm from a KDE-sampled genesis point.
	GenesisTrack
	// LineCut is a random great-circle line cut with a corridor width.
	LineCut
	// DiskOutage is a random disk outage.
	DiskOutage
	// RegionalFailure is an EMP-style correlated regional failure that
	// disables every link with an endpoint inside the disk.
	RegionalFailure

	numFamilies
)

var familyNames = [numFamilies]string{"track", "genesis", "cut", "disk", "regional"}

// String returns the family's spec name (track, genesis, cut, disk,
// regional).
func (f Family) String() string {
	if f < 0 || f >= numFamilies {
		return fmt.Sprintf("Family(%d)", int(f))
	}
	return familyNames[f]
}

// FamilyByName resolves a spec name back to its family.
func FamilyByName(name string) (Family, bool) {
	for i, n := range familyNames {
		if n == name {
			return Family(i), true
		}
	}
	return 0, false
}

// Families lists all families in declaration order.
func Families() []Family {
	out := make([]Family, numFamilies)
	for i := range out {
		out[i] = Family(i)
	}
	return out
}

// Scenario is one generated disaster. Track families carry a full advisory
// sequence; geometric families carry their shape parameters.
type Scenario struct {
	ID     int // position in the generated ensemble
	Family Family
	Seed   uint64 // the scenario's private RNG seed (diagnostic)

	// Track families: the advisory sequence and its peak-wind index (first
	// maximum, matching the CLI's peak-advisory rule).
	Advisories []*forecast.Advisory
	Peak       int

	// LineCut: the chord endpoints. Center holds the chord midpoint.
	CutA, CutB geo.Point

	// Disk-shaped families (and the cut corridor): Center is the disk
	// center, RadiusMi the disk radius — for LineCut, the corridor
	// half-width around the chord.
	Center   geo.Point
	RadiusMi float64
}

// Perturbation is the whole-track jitter magnitudes of the PerturbedTrack
// family. The zero value applies no perturbation and reproduces the base
// replay bit-identically (pinned by a property test).
type Perturbation struct {
	PosDeg        float64 // σ of the track-wide lat/lon offset, degrees
	IntensityFrac float64 // σ of the multiplicative max-wind factor
	RadiusFrac    float64 // σ of the multiplicative wind-radii factor
}

// DefaultPerturbation returns the standard ensemble jitter: ~50 mi of
// position spread and 15% intensity/size spread.
func DefaultPerturbation() Perturbation {
	return Perturbation{PosDeg: 0.75, IntensityFrac: 0.15, RadiusFrac: 0.15}
}

// Config parameterizes ensemble generation.
type Config struct {
	// Seed is the ensemble seed: with the spec, it fully determines every
	// scenario. Fixed constants only — never wall clock.
	Seed uint64
	// Spec is the ensemble composition, in order (see ParseSpec).
	Spec []FamilySpec

	// Replay is the PerturbedTrack base storm; when nil, Track is loaded
	// through the advisory text round-trip (generate + NLP parse).
	Replay *forecast.Replay
	// Track names the base storm when Replay is nil (default: Sandy).
	Track *datasets.BestTrack
	// Perturb is the whole-track jitter; the zero value reproduces the
	// base replay exactly.
	Perturb Perturbation

	// GenesisField is the rasterized density genesis points are drawn
	// from; nil fits the default peak-season surface (GenesisSurface).
	GenesisField *kde.Field

	// Workers bounds the goroutines of the default genesis-surface
	// rasterization (bit-identical at any setting). Generation itself is
	// sequential.
	Workers int
	// Metrics, when non-nil, receives scenario.generated_total and the
	// per-family scenario.family.<name> gauges.
	Metrics *obs.Registry
	// Trace, when non-nil, parents the "scenario-generate" span.
	Trace *obs.Span
}

// The geometric families follow Saito's disaster model: a centre (a cut's
// midpoint) uniform over geo.ContinentalUS's lat/lon box, and a radius or
// chord length uniform over [min, max), in miles; a cut's bearing is
// uniform too.
const (
	cutHalfWidthMi                           = 25 // line-cut corridor half-width
	cutLengthMinMi, cutLengthMaxMi           = 400, 1800
	diskRadiusMinMi, diskRadiusMaxMi         = 75, 250
	regionalRadiusMinMi, regionalRadiusMaxMi = 150, 450
)

// genesisCatalogSeed fixes the synthetic catalog behind the default genesis
// surface: the surface is part of the model, not of any one ensemble, so
// every process samples the same distribution.
const genesisCatalogSeed = 1

// GenesisSurface fits and rasterizes the default genesis sampling surface:
// a KDE over the peak hurricane season's catalog share (Fall carries 50% of
// annual Atlantic activity) at the paper's CV-trained hurricane bandwidth,
// over a padded conterminous-US grid. Workers only changes speed; the
// raster is bit-identical at any setting.
func GenesisSurface(workers int) *kde.Field {
	season := peakSeason(datasets.FEMAHurricane)
	events := datasets.GenerateSeasonalEvents(datasets.FEMAHurricane, season, 0, genesisCatalogSeed)
	est := kde.New(events, datasets.FEMAHurricane.PaperBandwidth())
	grid := geo.NewGrid(geo.ContinentalUS.Expand(3), 100, 200)
	return kde.RasterizeWorkers(est, grid, 5, workers)
}

func peakSeason(t datasets.EventType) datasets.Season {
	best := datasets.Winter
	for _, s := range datasets.Seasons {
		if datasets.SeasonalShare(t, s) > datasets.SeasonalShare(t, best) {
			best = s
		}
	}
	return best
}

// Generate draws the ensemble cfg describes: for each spec entry, Count
// scenarios of its family, in spec order. The result is a pure function of
// cfg's seed and parameters.
func Generate(cfg Config) ([]*Scenario, error) {
	if len(cfg.Spec) == 0 {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	seen := make(map[Family]bool)
	total := 0
	for _, fs := range cfg.Spec {
		if fs.Family < 0 || fs.Family >= numFamilies {
			return nil, fmt.Errorf("scenario: unknown family %d", int(fs.Family))
		}
		if fs.Count <= 0 {
			return nil, fmt.Errorf("scenario: non-positive count %d for family %q", fs.Count, fs.Family)
		}
		if seen[fs.Family] {
			return nil, fmt.Errorf("scenario: family %q appears twice", fs.Family)
		}
		seen[fs.Family] = true
		total += fs.Count
	}
	span := cfg.Trace.Child("scenario-generate")
	defer span.End()

	var base *forecast.Replay
	if seen[PerturbedTrack] {
		base = cfg.Replay
		if base == nil {
			track := cfg.Track
			if track == nil {
				track = datasets.HurricaneByName("Sandy")
			}
			var err error
			base, err = forecast.LoadReplay(track)
			if err != nil {
				return nil, err
			}
		}
		if len(base.Advisories) == 0 {
			return nil, fmt.Errorf("scenario: base replay %q has no advisories", base.Storm)
		}
	}
	var sampler *kde.FieldSampler
	if seen[GenesisTrack] {
		field := cfg.GenesisField
		if field == nil {
			field = GenesisSurface(cfg.Workers)
		}
		sampler = kde.NewFieldSampler(field)
		if sampler.Empty() {
			return nil, fmt.Errorf("scenario: genesis surface carries no mass")
		}
	}

	out := make([]*Scenario, 0, total)
	id := 0
	for _, fs := range cfg.Spec {
		for k := 0; k < fs.Count; k++ {
			seed := scenarioSeed(cfg.Seed, fs.Family, k)
			rng := stats.NewRNG(seed)
			s := &Scenario{ID: id, Family: fs.Family, Seed: seed}
			switch fs.Family {
			case PerturbedTrack:
				perturbTrack(s, base, cfg.Perturb, rng)
			case GenesisTrack:
				genesisTrack(s, sampler, rng)
			case LineCut:
				lineCut(s, rng)
			case DiskOutage:
				diskScenario(s, diskRadiusMinMi, diskRadiusMaxMi, rng)
			case RegionalFailure:
				diskScenario(s, regionalRadiusMinMi, regionalRadiusMaxMi, rng)
			}
			out = append(out, s)
			id++
		}
	}

	if cfg.Metrics != nil {
		cfg.Metrics.Counter("scenario.generated_total").Add(int64(len(out)))
		for _, fs := range cfg.Spec {
			cfg.Metrics.Gauge("scenario.family." + fs.Family.String()).Set(float64(fs.Count))
		}
	}
	span.SetAttr("scenarios", len(out))
	span.SetAttr("families", len(cfg.Spec))
	return out, nil
}

// scenarioSeed derives the k-th scenario's private RNG seed within a
// family: the ensemble seed combined with family- and index-specific odd
// constants, scrambled through one SplitMix64 step. Streams do not depend
// on other families' counts, so resizing one family never reshuffles
// another.
func scenarioSeed(seed uint64, f Family, k int) uint64 {
	h := seed ^ (uint64(f)+1)*0xA24BAED4963EE407 ^ (uint64(k)+1)*0x9FB21C651E98DF25
	return stats.NewRNG(h).Uint64()
}

// perturbTrack jitters the whole base track coherently: one position
// offset, one intensity factor, and one wind-radii factor apply to every
// advisory, so a perturbed storm stays a physically coherent storm rather
// than per-advisory noise. All four deviates are always drawn; with zero
// magnitudes the offsets are exactly 0 and the factors exactly 1, so
// lat+0, wind·1, radius·1 reproduce the base advisories bit-for-bit.
func perturbTrack(s *Scenario, base *forecast.Replay, p Perturbation, rng *stats.RNG) {
	dLat := rng.Norm() * p.PosDeg
	dLon := rng.Norm() * p.PosDeg
	fInt := 1 + rng.Norm()*p.IntensityFrac
	fRad := 1 + rng.Norm()*p.RadiusFrac
	if fInt < 0 {
		fInt = 0
	}
	if fRad < 0 {
		fRad = 0
	}
	s.Advisories = make([]*forecast.Advisory, len(base.Advisories))
	for i, a := range base.Advisories {
		c := *a
		c.Center.Lat += dLat
		c.Center.Lon += dLon
		if c.Center.Lat > 90 {
			c.Center.Lat = 90
		} else if c.Center.Lat < -90 {
			c.Center.Lat = -90
		}
		c.MaxWindMPH *= fInt
		c.HurricaneRadiusMi *= fRad
		c.TropicalRadiusMi *= fRad
		if c.TropicalRadiusMi < c.HurricaneRadiusMi {
			c.TropicalRadiusMi = c.HurricaneRadiusMi
		}
		s.Advisories[i] = &c
	}
	s.Peak = peakIndex(s.Advisories)
}

// genesisBase is the fixed timestamp synthetic advisories carry (peak
// hurricane season; the risk model reads only geometry, never the clock).
var genesisBase = time.Date(2020, time.September, 10, 5, 0, 0, 0, time.UTC)

// genesisTrack synthesizes a storm from a genesis point drawn off the
// fitted KDE surface: a 12-advisory, 6-hourly track marching on a jittered
// northeastward heading with a ramp-peak-decay intensity envelope and
// wind-proportional radii.
func genesisTrack(s *Scenario, sampler *kde.FieldSampler, rng *stats.RNG) {
	genesis := sampler.PointAt(rng.Float64(), rng.Float64(), rng.Float64())
	heading := 25 + rng.Norm()*20 // recurvature band, degrees from north
	speedMPH := 10 + 8*rng.Float64()
	peakWind := 75 + 80*rng.Float64() // category 1..5 at peak

	const n = 12
	const stepHours = 6.0
	s.Advisories = make([]*forecast.Advisory, n)
	center := genesis
	for i := 0; i < n; i++ {
		// Envelope: half strength at genesis and decay, full at mid-track.
		f := float64(i) / (n - 1)
		wind := peakWind * (0.55 + 0.45*math.Sin(math.Pi*f))
		hurricane := 0.0
		if wind >= 74 {
			hurricane = 0.35 * wind
		}
		dir := heading + rng.Norm()*6
		s.Advisories[i] = &forecast.Advisory{
			Storm:             "SYNTHETIC",
			Number:            i + 1,
			Time:              genesisBase.Add(time.Duration(i) * 6 * time.Hour),
			Zone:              "EDT",
			Center:            center,
			MaxWindMPH:        wind,
			HurricaneRadiusMi: hurricane,
			TropicalRadiusMi:  2.2 * wind,
			MovementDirDeg:    dir,
			MovementSpeedMPH:  speedMPH,
		}
		center = geo.Destination(center, dir, speedMPH*stepHours)
	}
	s.Peak = peakIndex(s.Advisories)
}

func lineCut(s *Scenario, rng *stats.RNG) {
	mid := randPoint(rng)
	brg := rng.Float64() * 360
	half := rng.Range(cutLengthMinMi, cutLengthMaxMi) / 2
	s.CutA = geo.Destination(mid, brg, half)
	s.CutB = geo.Destination(mid, brg+180, half)
	s.Center = mid
	s.RadiusMi = cutHalfWidthMi
}

func diskScenario(s *Scenario, minRadiusMi, maxRadiusMi float64, rng *stats.RNG) {
	s.Center = randPoint(rng)
	s.RadiusMi = rng.Range(minRadiusMi, maxRadiusMi)
}

func randPoint(rng *stats.RNG) geo.Point {
	b := geo.ContinentalUS
	return geo.Point{Lat: rng.Range(b.MinLat, b.MaxLat), Lon: rng.Range(b.MinLon, b.MaxLon)}
}

// peakIndex returns the index of the first maximum-wind advisory, the same
// first-of-equals rule the CLI's peak-advisory picker uses.
func peakIndex(advs []*forecast.Advisory) int {
	best := 0
	for i, a := range advs {
		if a.MaxWindMPH > advs[best].MaxWindMPH {
			best = i
		}
	}
	return best
}

// Overlay is a scenario compiled against one network: the forecast-layer
// risk o_f per PoP, index-aligned with the network's PoPs, plus the link
// indices an EMP-style correlated failure severs outright.
type Overlay struct {
	Forecast []float64
	Disabled []int // indices into net.Links; RegionalFailure only
}

// Compile maps the scenario onto one network as a forecast-layer overlay.
// Track families evaluate their peak advisory through
// forecast.RiskModel.PoPRisks — the exact machinery a single-advisory
// `route -storm` run uses, so downstream route costs are bit-identical to
// that path. Geometric families mark PoPs inside the cut corridor or disk
// at hurricane-force risk ρ_h; RegionalFailure additionally lists every
// link with an endpoint inside the disk as disabled.
func (s *Scenario) Compile(net *topology.Network, rm forecast.RiskModel) Overlay {
	switch s.Family {
	case PerturbedTrack, GenesisTrack:
		return Overlay{Forecast: rm.PoPRisks(s.Advisories[s.Peak], net)}
	case LineCut:
		of := make([]float64, len(net.PoPs))
		for i, p := range net.PoPs {
			if geo.SegmentDistance(s.CutA, s.CutB, p.Location) <= s.RadiusMi {
				of[i] = rm.RhoHurricane
			}
		}
		return Overlay{Forecast: of}
	case DiskOutage, RegionalFailure:
		of := make([]float64, len(net.PoPs))
		inside := make([]bool, len(net.PoPs))
		for i, p := range net.PoPs {
			if geo.Distance(s.Center, p.Location) <= s.RadiusMi {
				of[i] = rm.RhoHurricane
				inside[i] = true
			}
		}
		ov := Overlay{Forecast: of}
		if s.Family == RegionalFailure {
			for li, l := range net.Links {
				if inside[l.A] || inside[l.B] {
					ov.Disabled = append(ov.Disabled, li)
				}
			}
		}
		return ov
	}
	panic(fmt.Sprintf("scenario: unknown family %d", int(s.Family)))
}
