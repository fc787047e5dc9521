package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs in a guest whose vCPUs the host can take away to run
// other guests. That time is steal: the guest's threads are runnable but
// nothing runs them, so every wall-clock figure stretches while CPU time
// does not. Steal comes and goes over seconds, and a run that meets a
// burst of it reports the neighbours' load instead of the program's speed.
// The timed phase is therefore cut into short windows, the host's steal in
// each is read from /proc/stat, and the wall-clock metrics are computed
// over the windows in which the host took least.

// stealWindow is the width of one window. A live-updates batch (about
// 15 ms) is short against it; a steal burst is long against it.
const stealWindow = 250 * time.Millisecond

// stealSample is one reading of the guest's cumulative steal.
type stealSample struct {
	at    time.Duration // since the timed phase began
	ticks int64         // steal over all CPUs, in USER_HZ ticks
}

// stealSampler reads /proc/stat every stealWindow on its own goroutine.
type stealSampler struct {
	samples []stealSample
	stop    chan struct{}
	done    chan error
}

// startSteal takes the first sample at once, as the timed phase begins at
// start, and then one every stealWindow until stopped.
func startSteal(start time.Time) (*stealSampler, error) {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan error, 1)}
	t, err := readSteal()
	if err != nil {
		return nil, err
	}
	s.samples = append(s.samples, stealSample{time.Since(start), t})
	go func() {
		tick := time.NewTicker(stealWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- nil
				return
			case <-tick.C:
				t, err := readSteal()
				if err != nil {
					s.done <- err
					return
				}
				s.samples = append(s.samples, stealSample{time.Since(start), t})
			}
		}
	}()
	return s, nil
}

// finish stops the sampler, waits for its goroutine and returns the
// samples. Call it after the last operation of the timed phase has
// completed; operations that end after the last sample fall in no window.
func (s *stealSampler) finish() ([]stealSample, error) {
	close(s.stop)
	if err := <-s.done; err != nil {
		return nil, err
	}
	return s.samples, nil
}

// readSteal returns the guest's cumulative steal over all CPUs: the eighth
// value of the aggregate cpu line of /proc/stat, 0 on kernels that do not
// account steal.
func readSteal() (int64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected first line of /proc/stat: %q", line)
	}
	if len(fields) < 9 {
		return 0, nil
	}
	return strconv.ParseInt(fields[8], 10, 64)
}

// keptWindows returns, for each window between consecutive samples,
// whether it is kept, and the most steal a kept window holds. Windows are
// kept in order of increasing steal, every window tied with the last one
// kept included, until at least half of them are kept and the kept ones
// hold at least minOps of the completion times in done. On a host that
// takes nothing every window is kept.
func keptWindows(samples []stealSample, done []time.Duration, minOps int) (keep []bool, threshold int64) {
	n := len(samples) - 1
	if n < 1 {
		return nil, 0
	}
	steal := make([]int64, n)
	for w := range steal {
		steal[w] = samples[w+1].ticks - samples[w].ticks
	}
	ops := make([]int, n)
	for _, at := range done {
		if w := windowOf(samples, at); w >= 0 {
			ops[w]++
		}
	}
	order := make([]int, n)
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	keep = make([]bool, n)
	kept, held := 0, 0
	for _, w := range order {
		if kept >= (n+1)/2 && held >= minOps && steal[w] > threshold {
			break
		}
		keep[w] = true
		kept++
		held += ops[w]
		threshold = steal[w]
	}
	return keep, threshold
}

// windowOf returns the index of the window holding at, or -1 outside the
// sampled span.
func windowOf(samples []stealSample, at time.Duration) int {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at > at })
	if i == 0 || i == len(samples) {
		return -1
	}
	return i - 1
}
