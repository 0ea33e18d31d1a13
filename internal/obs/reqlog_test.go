package obs

import (
	"strings"
	"testing"
	"time"
)

func TestReqRingWrapKeepsNewest(t *testing.T) {
	r := NewReqRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(ReqRecord{Status: 100 + i})
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3", len(recs))
	}
	for i, want := range []int{103, 104, 105} {
		if recs[i].Status != want {
			t.Errorf("recs[%d].Status = %d, want %d (oldest first)", i, recs[i].Status, want)
		}
	}
}

func TestReqRingPartialFill(t *testing.T) {
	r := NewReqRing(10)
	r.Add(ReqRecord{Status: 200})
	r.Add(ReqRecord{Status: 500})
	recs := r.Records()
	if len(recs) != 2 || recs[0].Status != 200 || recs[1].Status != 500 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestReqRingNilAndSizes pins the ring's fixed size and its empty state: an
// empty ring returns nil records and still renders its header, and a ring of
// n retains exactly the newest n once overfilled.
func TestReqRingNilAndSizes(t *testing.T) {
	r := NewReqRing(4)
	if r.Records() != nil {
		t.Fatal("empty ring returned records")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("empty ring WriteText: %v", err)
	}
	if got := b.String(); got != "0 sampled requests (newest first)\n" {
		t.Fatalf("empty ring WriteText = %q", got)
	}
	for _, n := range []int{1, 4, 16} {
		r := NewReqRing(n)
		for i := 0; i < n+3; i++ {
			r.Add(ReqRecord{Status: i})
		}
		recs := r.Records()
		if len(recs) != n {
			t.Fatalf("NewReqRing(%d) retained %d records", n, len(recs))
		}
		if recs[0].Status != 3 || recs[n-1].Status != n+2 {
			t.Fatalf("NewReqRing(%d) kept %d..%d, want 3..%d", n, recs[0].Status, recs[n-1].Status, n+2)
		}
	}
}

func TestReqRingWriteText(t *testing.T) {
	r := NewReqRing(4)
	r.Add(ReqRecord{
		ID: "0123456789abcdef", Time: time.Unix(1700000000, 0),
		Method: "GET", Path: "/v1/route", Status: 200, Generation: 3,
		CacheHit: true, QueueWait: 150 * time.Microsecond, Duration: 2 * time.Millisecond,
	})
	r.Add(ReqRecord{
		ID: "fedcba9876543210", Time: time.Unix(1700000001, 0),
		Method: "GET", Path: "/v1/ratio", Status: 500, Duration: 40 * time.Millisecond,
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "2 sampled requests (newest first)\n") {
		t.Fatalf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d: %q", len(lines), out)
	}
	// Newest first: the 500 before the 200.
	if !strings.Contains(lines[1], "500") || !strings.Contains(lines[1], "id=fedcba9876543210") {
		t.Errorf("line 1 = %q, want the 500 record first", lines[1])
	}
	if !strings.Contains(lines[2], "cache=hit") || !strings.Contains(lines[2], "gen=3") {
		t.Errorf("line 2 = %q, want cache=hit gen=3", lines[2])
	}
}
