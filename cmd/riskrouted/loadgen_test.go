package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestLoadgenRejectsEmptyRun checks that a run which could send no request,
// with -clients below 1 or a -duration at or below 0, is refused before the
// PoP fetch rather than reporting "0 requests" as a success. Nothing listens
// on the target, so a run that got as far as the fetch fails differently.
func TestLoadgenRejectsEmptyRun(t *testing.T) {
	for _, tc := range []struct {
		clients  int
		duration time.Duration
		want     string
	}{
		{0, time.Second, "-clients must be at least 1"},
		{-3, time.Second, "-clients must be at least 1"},
		{4, 0, "-duration must be positive"},
		{4, -time.Second, "-duration must be positive"},
	} {
		o := options{target: "http://127.0.0.1:1", lgNetwork: "Sprint",
			clients: tc.clients, duration: tc.duration}
		var out bytes.Buffer
		err := runLoadgen(&out, &o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-clients %d -duration %s: err %v, want %q", tc.clients, tc.duration, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("-clients %d -duration %s: printed %q", tc.clients, tc.duration, out.String())
		}
	}
}
