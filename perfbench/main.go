// Command perfbench is the repository's end-to-end benchmark. One
// process hosts the database and drives it with a closed loop of two
// client goroutines; the workload generator takes a seed and the
// database receives only the generated statements and parameters.
//
//	bash perfbench/run.sh --workload read-tcp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics: set-up time,
// throughput and latency percentiles. With --trace 1 it reports the
// per-layer metrics instead: counter deltas over an untraced half of
// the window, then span self times from a traced half in which a seeded
// sample of ops is replayed at each lower entry point. The last line of
// standard output is one JSON object; the lines before it print every
// metric with its unit and kind. README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a --trace 0 run sets the database up;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// A run that fails a correctness check returns an error and prints no
// numbers, so a printed result always has Correct set.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A metric is one reported number. Kind is "wall-clock" for a time
// measured on this host and "counted" for a count or a ratio of counts.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	kind  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-tcp, write-tcp, txn-durable or txn-replicated")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		os.Exit(1)
	}
	report(cfg, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scratchDir returns a fresh directory under <root>/.bench_build for
// this process's data files.
func scratchDir(cfg config, tag string) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%s", cfg.workload, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func run(cfg config) (*result, error) {
	open := workloads[cfg.workload]
	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		var setups []float64
		var w workload
		for i := 0; i < setupReps; i++ {
			if w != nil {
				w.close()
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if w, err = open(cfg, fmt.Sprint(i)); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer w.close()
		fmt.Printf("# sizes: %s\n", w.sizes())
		m, err := measure(w, window, nil)
		if err != nil {
			return nil, err
		}
		m.logFailures("")
		res := m.result()
		if err := w.audit(); err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		res.Metrics = endToEnd(m, median(setups))
		return res, nil
	}
	w, err := open(cfg, "0")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	fmt.Printf("# sizes: %s\n", w.sizes())
	return tracedRun(w, cfg, window)
}

// endToEnd maps one measured window onto the end-to-end metrics.
// "stmt" latencies are single statements (point lookups, autocommit
// statements, COMMITs); "multi" latencies are the workload's multi-row
// or multi-statement op (README.md).
// Latencies are reported as band means rather than single percentiles
// (see hist.band): "mid" is the p25–p75 band, "tail" the p90–p99 band.
func endToEnd(m *window, setup float64) map[string]metric {
	wall := func(v float64, unit string) metric { return metric{Value: v, Unit: unit, kind: "wall-clock"} }
	for _, c := range []struct {
		name string
		h    *hist
	}{{"stmt", &m.stmt}, {"multi", &m.multi}} {
		fmt.Printf("# %s latency, %d samples from successful ops (%d ops failed): p50=%.4f p95=%.4f p99=%.4f ms\n",
			c.name, c.h.n, m.failed, ms(c.h.quantile(0.50)), ms(c.h.quantile(0.95)), ms(c.h.quantile(0.99)))
	}
	return map[string]metric{
		"setup_s":       wall(setup, "s"),
		"ops_per_s":     wall(float64(m.ok)/m.elapsed.Seconds(), "1/s"),
		"stmt_mid_ms":   wall(ms(m.stmt.band(0.25, 0.75)), "ms"),
		"stmt_tail_ms":  wall(ms(m.stmt.band(0.90, 0.99)), "ms"),
		"multi_mid_ms":  wall(ms(m.multi.band(0.25, 0.75)), "ms"),
		"multi_tail_ms": wall(ms(m.multi.band(0.90, 0.99)), "ms"),
	}
}

// aliases gives each generic latency metric the name the workload's
// own vocabulary uses for it, for the human-readable lines.
var aliases = map[string]map[string]string{
	"read-tcp":       {"stmt": "point", "multi": "scan"},
	"write-tcp":      {"multi": "txn"},
	"txn-durable":    {"stmt": "commit", "multi": "txn"},
	"txn-replicated": {"stmt": "commit", "multi": "txn"},
}

func report(cfg config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d error_rate=%.6f\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res.Correct, res.Attempted, res.Failed, errRate)
	for _, n := range names {
		m := res.Metrics[n]
		label := n
		for generic, own := range aliases[cfg.workload] {
			if len(n) > len(generic) && n[:len(generic)+1] == generic+"_" {
				label = fmt.Sprintf("%s (%s%s)", n, own, n[len(generic):])
			}
		}
		fmt.Printf("%-44s %14.4f %-10s %s\n", label, m.Value, m.Unit, m.kind)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
