package forecast

import (
	"fmt"
	"math"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/resilience"
	"riskroute/internal/topology"
)

// GenerateCorpus renders a storm's embedded best track into its public
// advisory text corpus: track.Advisories bulletins evenly spaced over the
// track's time span, matching the paper's per-storm advisory counts
// (Irene 70, Katrina 61, Sandy 60). Katrina bulletins carry CDT timestamps,
// the Atlantic-seaboard storms EDT, as in the NHC archive.
func GenerateCorpus(track *datasets.BestTrack) []string {
	zone := "EDT"
	if track.Name == "Katrina" {
		zone = "CDT"
	}
	start, end := track.Span()
	n := track.Advisories
	texts := make([]string, n)
	span := end.Sub(start)
	for i := 0; i < n; i++ {
		var t time.Time
		if n == 1 {
			t = start
		} else {
			t = start.Add(time.Duration(int64(span) / int64(n-1) * int64(i)))
		}
		fix := track.At(t)
		a := &Advisory{
			Storm:             upper(track.Name),
			Number:            i + 1,
			Time:              t,
			Zone:              zone,
			Center:            fix.Center,
			MaxWindMPH:        fix.MaxWindMPH,
			HurricaneRadiusMi: fix.HurricaneRadiusMi,
			TropicalRadiusMi:  fix.TropicalRadiusMi,
			MovementDirDeg:    fix.MovementDirDeg,
			MovementSpeedMPH:  fix.MovementSpeedMPH,
		}
		texts[i] = a.Text()
	}
	return texts
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// Replay is a storm's advisory sequence parsed back from text, ready for
// per-advisory risk evaluation.
type Replay struct {
	Storm      string
	Advisories []*Advisory
}

// LoadReplay generates and parses the advisory corpus for a storm. Every
// advisory must parse; a failure indicates a generator/parser mismatch and
// is returned as an error.
func LoadReplay(track *datasets.BestTrack) (*Replay, error) {
	texts := GenerateCorpus(track)
	r := &Replay{Storm: track.Name}
	for i, text := range texts {
		a, err := ParseAdvisory(text)
		if err != nil {
			return nil, fmt.Errorf("forecast: advisory %d of %s: %w", i+1, track.Name, err)
		}
		r.Advisories = append(r.Advisories, a)
	}
	return r, nil
}

// ParseCorpusLenient parses an advisory text corpus failing open: a bulletin
// that cannot be parsed (organically corrupt, or corrupted/truncated/dropped
// by the injector at PointAdvisoryParse, keyed by corpus index) does not
// abort the replay — the storm's last-known state is carried forward in its
// place, marked Carried and renumbered, with the loss recorded in health.
// Corrupt bulletins before the first parseable one are skipped. It errors
// only when no bulletin at all yields storm state.
func ParseCorpusLenient(storm string, texts []string,
	inj *resilience.Injector, health *resilience.Health) (*Replay, error) {

	r := &Replay{Storm: storm}
	var last *Advisory
	parsed, carried := 0, 0
	for i, text := range texts {
		key := uint64(i)
		parseErr := inj.Fail(resilience.PointAdvisoryParse, key)
		if parseErr == nil {
			mangled, dropped := inj.Transform(resilience.PointAdvisoryParse, key, text)
			if dropped {
				parseErr = &resilience.InjectedError{Point: resilience.PointAdvisoryParse, Key: key}
			} else {
				var a *Advisory
				var issues []*resilience.ValidationError
				a, issues, parseErr = ParseAdvisoryLenient(mangled)
				for _, ve := range issues {
					health.Degrade("replay", ve, "%s advisory %d: %s zeroed", storm, i+1, ve.Field)
				}
				if parseErr == nil {
					parsed++
					last = a
					r.Advisories = append(r.Advisories, a)
					continue
				}
			}
		}
		if last == nil {
			health.Degrade("replay", parseErr,
				"%s advisory %d unusable with no prior state; skipped", storm, i+1)
			continue
		}
		cf := *last
		cf.Number = i + 1
		cf.Carried = true
		carried++
		r.Advisories = append(r.Advisories, &cf)
		health.Degrade("replay", parseErr,
			"%s advisory %d corrupt; carried forward state of advisory %d", storm, i+1, last.Number)
	}
	if parsed == 0 {
		return nil, &resilience.DegradedError{
			Stage: "replay",
			Lost:  []string{fmt.Sprintf("all %d advisories of %s", len(texts), storm)},
			Err:   fmt.Errorf("forecast: no advisory of %s parseable", storm),
		}
	}
	health.Record("replay", "%s: %d/%d advisories parsed, %d carried forward",
		storm, parsed, len(texts), carried)
	// Line accounting rides the health report's registry (Health.AttachMetrics).
	reg := health.Metrics()
	reg.Counter("forecast.replay.parsed_total").Add(int64(parsed))
	reg.Counter("forecast.replay.carried_total").Add(int64(carried))
	reg.Counter("forecast.replay.advisories_total").Add(int64(len(texts)))
	return r, nil
}

// LoadReplayLenient generates a storm's advisory corpus and parses it in
// degraded mode via ParseCorpusLenient.
func LoadReplayLenient(track *datasets.BestTrack,
	inj *resilience.Injector, health *resilience.Health) (*Replay, error) {
	return ParseCorpusLenient(track.Name, GenerateCorpus(track), inj, health)
}

// CarriedCount returns how many advisories carry forwarded state.
func (r *Replay) CarriedCount() int {
	n := 0
	for _, a := range r.Advisories {
		if a.Carried {
			n++
		}
	}
	return n
}

// RiskModel maps an advisory's wind fields to forecasted outage risk o_f.
// The paper's Section 5.3 uses ρ_t = 50 and ρ_h = 100.
type RiskModel struct {
	RhoTropical  float64
	RhoHurricane float64
}

// DefaultRiskModel returns the paper's ρ values.
func DefaultRiskModel() RiskModel { return RiskModel{RhoTropical: 50, RhoHurricane: 100} }

// RiskAt returns o_f at p under advisory a: ρ_h inside the hurricane-force
// wind radius, ρ_t inside the tropical-storm radius, 0 outside.
//
// A point whose latitude alone puts it beyond both radii returns 0 without
// a haversine. The meridian arc R·|φ_p − φ_c| is a lower bound on the
// great-circle distance between points with latitudes in [−90, 90]: the
// haversine term sin²(Δφ/2) + cos φ_p·cos φ_c·sin²(Δλ/2) is at least
// sin²(Δφ/2). The bound uses Distance's own Δφ, and it must exceed the
// larger radius by a relative 1e-9, far above the rounding either side
// carries, so no point's classification changes.
func (r RiskModel) RiskAt(a *Advisory, p geo.Point) float64 {
	dLat := geo.DegToRad(p.Lat) - geo.DegToRad(a.Center.Lat)
	if geo.EarthRadiusMiles*math.Abs(dLat) > max(a.HurricaneRadiusMi, a.TropicalRadiusMi)*(1+1e-9) {
		return 0
	}
	d := geo.Distance(a.Center, p)
	if a.HurricaneRadiusMi > 0 && d <= a.HurricaneRadiusMi {
		return r.RhoHurricane
	}
	if d <= a.TropicalRadiusMi {
		return r.RhoTropical
	}
	return 0
}

// PoPRisks evaluates RiskAt for every PoP of a network, index-aligned.
func (r RiskModel) PoPRisks(a *Advisory, n *topology.Network) []float64 {
	out := make([]float64, len(n.PoPs))
	for i, p := range n.PoPs {
		out[i] = r.RiskAt(a, p.Location)
	}
	return out
}

// Scope is the union of a storm's wind fields over a whole advisory
// sequence — the paper's Figure 6 "final geo-spatial scope".
type Scope struct {
	Advisories []*Advisory
}

// ScopeOf collects a replay's advisories into a Scope.
func ScopeOf(r *Replay) *Scope { return &Scope{Advisories: r.Advisories} }

// Membership classifies a point against the scope.
type Membership int

const (
	// Outside means the point was never inside the storm's wind fields.
	Outside Membership = iota
	// TropicalForce means the point saw tropical-storm-force winds at some
	// advisory but never hurricane-force.
	TropicalForce
	// HurricaneForce means the point was inside hurricane-force winds at
	// some advisory.
	HurricaneForce
)

// Classify returns the strongest wind field that ever covered p.
func (s *Scope) Classify(p geo.Point) Membership {
	best := Outside
	for _, a := range s.Advisories {
		d := geo.Distance(a.Center, p)
		if a.HurricaneRadiusMi > 0 && d <= a.HurricaneRadiusMi {
			return HurricaneForce
		}
		if d <= a.TropicalRadiusMi && best < TropicalForce {
			best = TropicalForce
		}
	}
	return best
}

// PoPsInScope counts a network's PoPs that ever saw hurricane-force and
// tropical-storm-force (or stronger) winds. The paper's Section 7.3 reports
// the hurricane-force counts for the Tier-1 corpus: 86 PoPs for Irene, 8 for
// Katrina, 115 for Sandy.
func (s *Scope) PoPsInScope(n *topology.Network) (hurricane, tropicalOrMore int) {
	for _, p := range n.PoPs {
		switch s.Classify(p.Location) {
		case HurricaneForce:
			hurricane++
			tropicalOrMore++
		case TropicalForce:
			tropicalOrMore++
		}
	}
	return hurricane, tropicalOrMore
}
