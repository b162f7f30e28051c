// Command bench is the repository's benchmark: five closed-loop HTTP
// workloads against in-process servers on loopback, checked against a
// brute-force reference, plus a traced run that replays the same inputs
// through each layer's exported functions. See README.md.
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

func main() {
	var (
		workload = flag.String("workload", "", "one of qbe_paper, ingest_mixed, search_scan, search_hot, cluster_scan")
		seed     = flag.Int64("seed", 42, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "append the run as one JSON line to this file (a run set)")
		compare  = flag.Bool("compare", false, "compare two run sets: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two run-set files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if workloadIndex(*workload) < 0 {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// Everything the run writes stays under bench/out in the checkout.
	outDir := filepath.Join("bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, sz: fullSizes, tmpRoot: outDir}
	host := hostFacts()
	fmt.Printf("bench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d clients=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, host.NumCPU, host.GOMAXPROCS, clientCount(), host.GoVersion)

	var (
		res *result
		err error
	)
	if *trace != 0 {
		res, err = runTraced(cfg, filepath.Join(outDir, "trace.json"))
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fatal(err)
	}
	printResult(res, *trace != 0)
	if *out != "" {
		if err := appendRun(*out, runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
			Trace: *trace, Host: host, UnixTime: time.Now().Unix(), Result: res, Info: res.Info}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// hostInfo is recorded with every run: numbers taken on different hosts
// are not comparable.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
}

func hostFacts() hostInfo {
	return hostInfo{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount()}
}

// printResult prints every metric by name with its unit, then the
// informational numbers.
func printResult(res *result, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, m := range specs {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (info) %-29s %14.4f\n", k, res.Info[k])
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// runRecord is one line of a run-set file.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	Host     hostInfo           `json:"host"`
	UnixTime int64              `json:"unix_time"`
	Result   *result            `json:"result"`
	Info     map[string]float64 `json:"info,omitempty"`
}

func appendRun(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
