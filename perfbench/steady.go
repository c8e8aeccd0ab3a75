package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload n times as child processes on seeds
// seed..seed+n-1, one at a time, and prints every metric's median,
// quartiles (Python's statistics.quantiles, exclusive method), the
// quartile spread and (max-min) as shares of the median. With traced it
// also runs n traced children and prints the tracing overhead: the
// traced runs' end-to-end medians against the untraced ones.
func steadiness(wl string, seed int64, seconds int, traced bool, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	plain, _, ok := children(exe, wl, seed, seconds, 0, n)
	if !ok {
		return 1
	}
	fmt.Printf("%s, %d runs of %d s, seeds %d..%d, untraced\n", wl, n, seconds, seed, seed+int64(n)-1)
	printSpread(plain)
	if !traced {
		return 0
	}
	layers, tracedE2E, ok := children(exe, wl, seed, seconds, 1, n)
	if !ok {
		return 1
	}
	fmt.Printf("\n%s, %d traced runs: per-layer metrics\n", wl, n)
	printSpread(layers)
	fmt.Printf("\ntracing overhead (traced median / untraced median - 1)\n")
	for _, name := range sortedKeys(plain) {
		base := median(plain[name])
		if t, ok := tracedE2E[name]; ok && base != 0 {
			fmt.Printf("  %-28s %+7.2f%%\n", name, (median(t)/base-1)*100)
		}
	}
	return 0
}

// children runs n child benchmarks and collects each metric's values
// from their result lines, plus the traced end-to-end figures of traced
// children.
func children(exe, wl string, seed int64, seconds, trace, n int) (map[string][]float64, map[string][]float64, bool) {
	vals := map[string][]float64{}
	tracedE2E := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", s, err)
			return nil, nil, false
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			var t struct {
				E2E map[string]metric `json:"traced_end_to_end"`
			}
			if json.Unmarshal(line, &t) == nil && t.E2E != nil {
				//hopplint:sorted each key's slice gains one value per run, so iteration order reaches no output
				for k, m := range t.E2E {
					tracedE2E[k] = append(tracedE2E[k], m.Value)
				}
			}
			last = append(last[:0], line...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: bad result line %q\n", s, last)
			return nil, nil, false
		}
		fmt.Fprintf(os.Stderr, "seed %d: attempted %d, failed %d\n", s, res.Attempted, res.Failed)
		//hopplint:sorted each key's slice gains one value per run, so iteration order reaches no output
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	return vals, tracedE2E, true
}

func printSpread(vals map[string][]float64) {
	fmt.Printf("  %-36s %14s %14s %14s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range sortedKeys(vals) {
		xs := vals[name]
		med := median(xs)
		q := pyQuartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr, rng = (q[2]-q[0])/med, (hi-lo)/med
		}
		fmt.Printf("  %-36s %14.6g %14.6g %14.6g %8.2f%% %8.2f%%\n", name, med, q[0], q[2], iqr*100, rng*100)
	}
}

// pyQuartiles is Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func pyQuartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	if len(d) < 2 {
		if len(d) == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	//hopplint:sorted keys are sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
