package obs

// Tail-sampled request log: a bounded in-memory ring of the requests worth
// looking at (slow ones, errored ones), in the spirit of net/trace's
// /debug/requests page. The serving layer decides what to sample; the ring
// just retains the most recent N records and renders them newest-first for
// the debug endpoint.

import (
	"fmt"
	"io"
	"time"
)

// ReqRecord is one sampled request.
type ReqRecord struct {
	ID         string        `json:"id"`
	Time       time.Time     `json:"time"`
	Method     string        `json:"method"`
	Path       string        `json:"path"`
	Status     int           `json:"status"`
	Generation uint64        `json:"generation"`
	CacheHit   bool          `json:"cache_hit"`
	QueueWait  time.Duration `json:"queue_wait_ns"`
	Duration   time.Duration `json:"duration_ns"`
}

// ReqRing retains the last N sampled requests.
type ReqRing struct{ Ring[ReqRecord] }

// NewReqRing returns a ring holding the last n records (n must be
// positive).
func NewReqRing(n int) *ReqRing {
	return &ReqRing{Ring[ReqRecord]{buf: make([]ReqRecord, n)}}
}

// WriteText renders the retained records newest first, one per line —
// the /debug/requests page.
func (r *ReqRing) WriteText(w io.Writer) error {
	recs := r.Records()
	if _, err := fmt.Fprintf(w, "%d sampled requests (newest first)\n", len(recs)); err != nil {
		return err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		hit := "miss"
		if rec.CacheHit {
			hit = "hit"
		}
		_, err := fmt.Fprintf(w, "%s %3d %-4s %-20s id=%s gen=%d cache=%s queue=%s dur=%s\n",
			rec.Time.UTC().Format(time.RFC3339Nano), rec.Status, rec.Method, rec.Path,
			rec.ID, rec.Generation, hit,
			rec.QueueWait.Round(time.Microsecond), rec.Duration.Round(time.Microsecond))
		if err != nil {
			return err
		}
	}
	return nil
}
