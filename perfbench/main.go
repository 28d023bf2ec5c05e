// Command perfbench is the repository benchmark: it measures bwshare
// from outside, calling only the public entry points of each layer.
//
//	perfbench --workload serve-hit --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve-hit     bwgate over two bwserved replicas, every request a cache hit
//	serve-miss    the same fleet, every prediction a fresh scheme, plus
//	              fault-injected fabrics and cluster lifecycles
//	trace-replay  offline, single-threaded replay of seeded composite
//	              traces on two substrates and their model engines
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1
// it runs the same seeded workload traced and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong output, or a
// workload that stops stressing the layer it exists for, makes the run
// exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// Workload names.
const (
	workloadHit    = "serve-hit"
	workloadMiss   = "serve-miss"
	workloadReplay = "trace-replay"
)

var workloads = []string{workloadHit, workloadMiss, workloadReplay}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	log      clientLog
	values   map[string]float64
	problems []string // failed self-checks
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced workload and prints the per-layer metrics")
	flag.Parse()
	if !validWorkload(*workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0 or 1\n", workloads)
		os.Exit(2)
	}
	fmt.Println("fingerprint", takeFingerprint(*workload, *seed, *traced == 1).String())

	d := time.Duration(*seconds) * time.Second
	var (
		out outcome
		err error
	)
	switch {
	case *workload == workloadReplay && *traced == 0:
		out, err = replayUntraced(*seed, d)
	case *workload == workloadReplay:
		out, err = replayTraced(*seed, d)
	case *traced == 0:
		out, err = serveUntraced(*workload, *seed, d)
	default:
		out, err = serveTraced(*workload, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	metrics, err := collect(defs, out.values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(metrics, out.log)
	for _, p := range append(out.log.problems, out.problems...) {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	res := result{
		Correct:   out.log.failed == 0 && len(out.problems) == 0,
		Attempted: out.log.attempted,
		Failed:    out.log.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if w == x {
			return true
		}
	}
	return false
}

// printMetrics prints one "metric <name> <value> <unit>" line per
// metric, sorted by name, plus the error ratio, which the result line
// carries as failed/attempted.
func printMetrics(metrics map[string]metricValue, log clientLog) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("metric error_ratio %g ratio (%d of %d ops)\n", float64(log.failed)/float64(max(log.attempted, 1)), log.failed, log.attempted)
}

// slice is the length of the slices a timed window is cut into. The
// throughput and latency percentiles are taken per slice, and each is
// reported as its median over the slices (the p99 as their lower
// quartile), so that a host stall or a burst of host load that hits one
// slice does not move the run's figures. A slice holds well over 1000 ops on every workload, so its
// p99 has over 10 samples beyond it.
const slice = 3 * time.Second

// tailQuantile picks the reported p99 from the slices' p99s: their lower
// quartile rather than their median. A host stall lengthens an op by
// the time it lasts, so it inflates the tail far more than the median:
// on serve-miss a noisy period of 20 s raised its slices' p99 by 40-60%
// and their p50 by 10%. Read at the lower quartile, the tail moves only
// when over three quarters of the slices move.
const tailQuantile = 0.25

// slicing returns how many slices a window of length d is cut into and
// how long each is.
func slicing(d time.Duration) (int, time.Duration) {
	n := max(1, int((d+slice/2)/slice))
	return n, d / time.Duration(n)
}

// sliceCPU samples the process CPU clock at start and at the end of
// each slice of a window of length d that began at start.
func sliceCPU(start time.Time, d time.Duration) []time.Duration {
	n, length := slicing(d)
	marks := []time.Duration{processCPU()}
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * length)))
		marks = append(marks, processCPU())
	}
	return marks
}

// latencyValues fills the end-to-end metrics of a timed window. An op
// belongs to the slice it started in; ops started after the planned
// window count into the last slice.
func latencyValues(w window, values map[string]float64) {
	n, length := slicing(w.length)
	lat := make([][]float64, n)
	for i, us := range w.log.latUS {
		k := min(int(time.Duration(w.log.startNS[i]-w.start.UnixNano())/length), n-1)
		lat[k] = append(lat[k], us)
	}
	var thr, p50, p99 []float64
	for k, l := range lat {
		if len(l) == 0 { // an op outlasted the whole slice
			thr = append(thr, 0)
			continue
		}
		secs := length.Seconds()
		switch {
		case w.cpuTimed:
			secs = sum(l) / 1e6
		case w.cpuMarks != nil:
			secs = (w.cpuMarks[k+1] - w.cpuMarks[k]).Seconds()
		}
		thr = append(thr, float64(len(l))/secs)
		p50 = append(p50, percentile(l, 0.50)/1e3)
		p99 = append(p99, percentile(l, 0.99)/1e3)
	}
	values["throughput_ops_s"] = medianOf(thr)
	values["latency_p50_ms"] = medianOf(p50)
	values["latency_p99_ms"] = percentile(p99, tailQuantile)
	values["alloc_kb_per_op"] = w.allocKB / float64(max(w.log.attempted, 1))
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
