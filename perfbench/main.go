// Command perfbench is the repository's benchmark. It drives the paper's
// sequential router, the pathfinder engine and an in-process routed through
// one of three workloads, checks every result with a verifier that shares
// no logic with the router, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload seq-route --seed 1 --seconds 20 --trace 0
//
// README.md lists the workloads, the metrics, and which end-to-end metric
// each layer metric should move on which workload.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to one circuit, for the smoke test.
	tiny bool
	// traceOut is where a traced run writes its spans.
	traceOut string
}

// workloads are the benchmark's workload names, as BENCHMARK.json lists them.
var workloads = []string{"seq-route", "pathfinder-route", "service-mixed"}

func parseFlags(args []string) (runConfig, error) {
	var cfg runConfig
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: seq-route, pathfinder-route or service-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it (1 = the EXPERIMENTS.md netlists)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if !slices.Contains(workloads, cfg.workload) {
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = *traceFlag == 1
	cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	return cfg, nil
}

// run executes one invocation, writing the human-readable lines to out,
// and returns the report with the metric table it covers.
func run(cfg runConfig, out io.Writer) (*report, []metricDef, error) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(out, "machine %s\n", machineFacts(os.TempDir()))
	t := &tally{}
	var (
		m   *metrics
		err error
	)
	start := time.Now()
	if !cfg.trace {
		switch cfg.workload {
		case "service-mixed":
			m, err = newMixed(cfg).runUntraced(out, t)
		default:
			m, err = newBatch(cfg, cfg.workload == "pathfinder-route").runUntraced(out, t)
		}
	} else {
		tr := &tracer{}
		m = newMetrics(perLayer)
		switch cfg.workload {
		case "service-mixed":
			err = newMixed(cfg).runTraced(out, m, t, tr)
		default:
			err = newBatch(cfg, cfg.workload == "pathfinder-route").runTraced(out, m, t, tr)
		}
		if err == nil {
			for name, v := range tr.selfMs() {
				metric := "trace." + strings.ReplaceAll(name, ".", "_") + "_self_ms"
				if slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == metric }) {
					m.set(metric, v)
				}
			}
			if err = tr.write(cfg.traceOut); err == nil {
				fmt.Fprintf(out, "spans written to %s\n", cfg.traceOut)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	for _, msg := range t.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", msg)
	}
	fmt.Fprintf(out, "elapsed %.1f s\n", time.Since(start).Seconds())
	rep, err := m.finish(t)
	return rep, m.defs, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, defs, err := run(cfg, os.Stdout)
	if err == nil {
		err = rep.print(os.Stdout, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
