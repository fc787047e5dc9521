package main

import (
	"testing"
	"time"
)

// samples builds steal samples one window apart with the given steal per
// window.
func samples(perWindow ...int64) []stealSample {
	out := []stealSample{{0, 100}}
	for i, s := range perWindow {
		out = append(out, stealSample{time.Duration(i+1) * stealWindow, out[i].ticks + s})
	}
	return out
}

func TestStealSamplerStops(t *testing.T) {
	t.Parallel()
	s, err := startSteal(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ticks < 0 {
		t.Fatalf("samples %v, want a first reading of the cumulative steal", got)
	}
}

func TestKeptWindowsDropsStolenWindows(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		steal []int64
		want  []bool
	}{
		{[]int64{0, 0, 0, 0}, []bool{true, true, true, true}},
		{[]int64{0, 9, 0, 7, 0}, []bool{true, false, true, false, true}},
		// Steal everywhere: the less stolen half stays.
		{[]int64{5, 9, 3, 7}, []bool{true, false, true, false}},
	} {
		keep, _ := keptWindows(samples(tc.steal...), nil, 0)
		for w := range tc.want {
			if keep[w] != tc.want[w] {
				t.Errorf("steal %v: kept %v, want %v", tc.steal, keep, tc.want)
				break
			}
		}
	}
}

// Too few operations in the least stolen half: more windows are kept, in
// order of increasing steal, until p99 rests on enough of them.
func TestKeptWindowsKeepEnoughOperations(t *testing.T) {
	t.Parallel()
	st := samples(0, 4, 9, 2)
	var done []time.Duration
	for w := 0; w < 4; w++ {
		for i := 0; i < 10; i++ {
			done = append(done, time.Duration(w)*stealWindow+time.Millisecond)
		}
	}
	keep, threshold := keptWindows(st, done, 30)
	if want := []bool{true, true, false, true}; threshold != 4 || keep[0] != want[0] || keep[1] != want[1] || keep[2] != want[2] || keep[3] != want[3] {
		t.Errorf("kept %v up to steal %d, want %v up to 4", keep, threshold, want)
	}
}

// A burst of steal in the middle of the timed phase slows the operations
// it meets; the metrics must come from the other windows.
func TestLatencyMetricsSkipStolenWindows(t *testing.T) {
	t.Parallel()
	const fast, slow = 200 * time.Microsecond, 2 * time.Millisecond
	var r loopResult
	r.steal = samples(0, 0, 25, 0)
	var at time.Duration
	for at < 4*stealWindow {
		lat := fast
		if at >= 2*stealWindow && at < 3*stealWindow {
			lat = slow
		}
		at += lat
		r.lat = append(r.lat, lat)
		r.done = append(r.done, at)
		r.attempted++
	}
	m := map[string]metric{}
	if err := latencyMetrics(r, m); err != nil {
		t.Fatal(err)
	}
	if got := m["latency_p99_ms"].Value; got != 0.2 {
		t.Errorf("p99 %v ms, want 0.2: the stolen window's operations leaked in", got)
	}
	if got := m["ops_per_s"].Value; got < 4900 || got > 5100 {
		t.Errorf("ops_per_s %v, want about 5000", got)
	}
}
