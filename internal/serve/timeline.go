package serve

// The swap timeline: a bounded per-generation event log answering "what has
// this daemon been serving, and when did it change?". Every published
// generation — startup, advisory swap, rollback — appends one event with the
// durations of its parse/rebuild/swap stages and how many cached results the
// swap invalidated. Served at /v1/generations.

import "time"

// SwapEvent is one generation's lifecycle record.
type SwapEvent struct {
	Generation uint64    `json:"generation"`
	Time       time.Time `json:"time"`
	// Storm and Advisory identify the applied bulletin ("" / 0 for the
	// startup generation and for rollbacks to the no-advisory world).
	Storm    string `json:"storm,omitempty"`
	Advisory int    `json:"advisory,omitempty"`
	// Stage durations: parsing the bulletin (0 when the caller handed over
	// an already-parsed advisory without timing), rebuilding the forecast
	// layer and engines, and the whole swap end to end.
	ParseSeconds   float64 `json:"parse_seconds"`
	RebuildSeconds float64 `json:"rebuild_seconds"`
	SwapSeconds    float64 `json:"swap_seconds"`
	// CacheInvalidated is how many cached results the generation change
	// discarded.
	CacheInvalidated int `json:"cache_invalidated"`
	// Rollback marks a generation published by RevertAdvisory rather than a
	// forward swap.
	Rollback bool `json:"rollback"`
}
