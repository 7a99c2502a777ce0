package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"twoface"
	"twoface/internal/serve"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, a request due every 5 ms, each taking 20 ms: the sender
	// falls behind, so every request after the first leaves late, and its
	// latency counts the wait from its due time, not from when it was sent.
	const (
		gap     = 5 * time.Millisecond
		service = 20 * time.Millisecond
	)
	due := make([]time.Duration, 6)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	start := time.Now()
	samples := openLoop(start, due, 1, func(i int, s *sample) {
		time.Sleep(service)
		s.first = time.Now()
		s.done = s.first
		s.status = http.StatusOK
	})
	for i, s := range samples {
		if !s.due.Equal(start.Add(due[i])) {
			t.Fatalf("request %d due %v, want %v", i, s.due.Sub(start), due[i])
		}
		late := s.sent.Sub(s.due)
		if late < 0 {
			t.Fatalf("request %d sent %v before it was due", i, -late)
		}
		if i > 0 && late < time.Duration(i)*(service-gap) {
			t.Errorf("request %d late by %v, want at least %v", i, late, time.Duration(i)*(service-gap))
		}
		if got := s.latency(); got < late+service {
			t.Errorf("request %d latency %v, want at least late %v + service %v", i, got, late, service)
		}
	}

	// With a sender per request nothing waits for a sender.
	samples = openLoop(time.Now(), due, len(due), func(i int, s *sample) {
		time.Sleep(service)
		s.done = time.Now()
	})
	for i, s := range samples {
		if late := s.sent.Sub(s.due); late > service {
			t.Errorf("request %d late by %v with idle senders", i, late)
		}
	}
}

func TestErrorRateCountsShedAndVerificationFailures(t *testing.T) {
	// A fake daemon: plan "shed" answers 429, include_c responses carry a
	// wrong C, everything else succeeds.
	want := &twoface.DenseMatrix{Rows: 2, Cols: 1, Data: []float64{1, 2}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.MultiplyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Plan == "shed" {
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		resp := serve.MultiplyResponse{Plan: req.Plan, Rows: 2, K: 1, TotalMillis: 0.1}
		if req.IncludeC {
			resp.C = []float64{1, 2.5}
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	c := &client{http: ts.Client(), url: ts.URL, names: []string{"ok", "shed"}}
	reqs := []request{
		{plan: 0, inline: -1},
		{plan: 1, inline: -1},                 // 429
		{plan: 0, inline: -1, includeC: true}, // wrong C
		{plan: 0, inline: -1},
	}
	w := serveWorkload{slo: time.Second}
	samples := w.phase(c, reqs, func(request) *twoface.DenseMatrix { return want }, 1000, 0)
	samples = samples[:len(reqs)]
	attempted, failed, mismatches := tally(samples)
	_, _, shed := outcomeCounts(samples)
	if attempted != 4 || failed != 2 || mismatches != 1 || shed != 1 {
		t.Errorf("attempted %d failed %d mismatches %d shed %d; want 4, 2, 1, 1", attempted, failed, mismatches, shed)
	}
	if samples[2].timed() || samples[1].timed() || !samples[0].timed() {
		t.Error("failed requests and verification samples must stay out of latency statistics")
	}
	if w.meetsLimit(samples, 1) {
		t.Error("a step with a refused request met the latency limit; a refusal must count as a miss")
	}
}
