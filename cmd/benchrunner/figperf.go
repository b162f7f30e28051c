package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"threedess"
	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
	"threedess/internal/workpool"
)

// PerfHost records the machine a perf run executed on, so archived
// BENCH_perf.json files from different hosts are never compared blindly.
type PerfHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// PerfSeries is one measured configuration: a scan worker count at a
// corpus size, or an ingest configuration (Records = corpus size).
type PerfSeries struct {
	Name         string  `json:"name"` // e.g. "scan_columns"
	Records      int     `json:"records"`
	ShapesPerSec float64 `json:"shapes_per_sec"`
}

// PerfReport is the machine-readable result of `benchrunner -fig perf`,
// written alongside the human-readable table and csv rows.
type PerfReport struct {
	GeneratedUnix int64        `json:"generated_unix"`
	Seed          int64        `json:"seed"`
	Host          PerfHost     `json:"host"`
	Sizes         []int        `json:"sizes"`
	Series        []PerfSeries `json:"series"`
}

// scanSeriesNames are the per-size configurations figPerf measures and
// checkPerfReport requires: the columnar scan on one worker and on one
// worker per logical CPU.
var scanSeriesNames = []string{"scan_columns_w1", "scan_columns"}

// figPerf measures the query execution layer: bulk-ingest throughput
// (worker-pool feature extraction), and weighted top-k search throughput
// at each corpus size in sizes for the columnar scan on one worker and on
// all of them. Both return identical results by construction; only the
// wall clock differs. The series land on stdout as csv rows and in
// outPath as BENCH_perf.json.
func figPerf(seed int64, sizes []int, outPath string) error {
	header(fmt.Sprintf("perf: ingest & weighted columnar scan (GOMAXPROCS = %d)", runtime.GOMAXPROCS(0)))
	report := &PerfReport{
		GeneratedUnix: time.Now().Unix(),
		Seed:          seed,
		Sizes:         sizes,
		Host: PerfHost{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}

	shapes, err := threedess.GenerateCorpus(seed)
	if err != nil {
		return err
	}
	ingest := func(workers int) (float64, error) {
		sys, err := threedess.Open("", threedess.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		start := time.Now()
		if _, err := sys.InsertBatch(shapes); err != nil {
			return 0, err
		}
		return float64(len(shapes)) / time.Since(start).Seconds(), nil
	}
	serialIngest, err := ingest(1)
	if err != nil {
		return err
	}
	poolIngest, err := ingest(0)
	if err != nil {
		return err
	}
	fmt.Printf("bulk ingest (%d shapes): %.1f shapes/sec serial, %.1f shapes/sec pooled (%.2fx)\n",
		len(shapes), serialIngest, poolIngest, poolIngest/serialIngest)
	fmt.Printf("csv,perf,ingest,serial,%.2f\n", serialIngest)
	fmt.Printf("csv,perf,ingest,pooled,%.2f\n", poolIngest)
	report.Series = append(report.Series,
		PerfSeries{Name: "ingest_serial", Records: len(shapes), ShapesPerSec: serialIngest},
		PerfSeries{Name: "ingest_pooled", Records: len(shapes), ShapesPerSec: poolIngest},
	)

	for _, n := range sizes {
		rates, err := perfScanSize(seed, n, shapes[0].Mesh)
		if err != nil {
			return err
		}
		for i, name := range scanSeriesNames {
			report.Series = append(report.Series, PerfSeries{Name: name, Records: n, ShapesPerSec: rates[i]})
			fmt.Printf("csv,perf,scan,%s,%d,%.2f\n", name[len("scan_"):], n, rates[i])
		}
		fmt.Printf("weighted top-10 at %d records: 1 worker %.0f, %d workers %.0f shapes/sec (%.2fx)\n",
			n, rates[0], workpool.Resolve(0), rates[1], rates[1]/rates[0])
	}

	if outPath != "" {
		if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// perfScanSize builds an in-memory database of n synthetic records and
// measures weighted top-10 throughput (records visited per second) of the
// columnar scan on one worker and on one per logical CPU, in that order.
func perfScanSize(seed int64, n int, mesh *geom.Mesh) ([2]float64, error) {
	var rates [2]float64
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		return rates, err
	}
	defer db.Close()
	opts := db.Options()
	// Vectors are arbitrary but deterministic; only one feature kind is
	// stored (and one mesh shared) so memory stays proportional to what
	// the query touches.
	kind := features.PrincipalMoments
	dim := opts.Dim(kind)
	for i := 0; i < n; i++ {
		v := make(features.Vector, dim)
		for d := range v {
			v[d] = float64((i*31+d*7+int(seed)*13)%997) / 50
		}
		if _, err := db.Insert("synth", i%26, mesh, features.Set{kind: v}); err != nil {
			return rates, err
		}
	}
	query := features.Set{kind: make(features.Vector, dim)}
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 1 + float64(i)
	}
	searchOpts := core.Options{Feature: kind, Weights: weights, K: 10}
	// Iteration counts scale inversely with corpus size so one config
	// costs on the order of ten million row visits regardless of n.
	iters := 10_000_000 / n
	if iters < 3 {
		iters = 3
	} else if iters > 50 {
		iters = 50
	}
	measure := func(workers int) (float64, error) {
		e := core.NewEngine(db).SetWorkers(workers)
		// Warm up so the measured loop sees an already-built columnar
		// store (a server keeps it fresh in the background; the build is
		// not per-query cost).
		if _, err := e.SearchTopK(context.Background(), query, searchOpts); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.SearchTopK(context.Background(), query, searchOpts); err != nil {
				return 0, err
			}
		}
		return float64(n) * float64(iters) / time.Since(start).Seconds(), nil
	}
	if rates[0], err = measure(1); err != nil {
		return rates, err
	}
	if rates[1], err = measure(0); err != nil {
		return rates, err
	}
	return rates, nil
}

// checkPerfReport validates a BENCH_perf.json: it must parse, carry both
// ingest series, and carry every scan series at every size it declares,
// all with positive finite rates. Used by verify.sh as a smoke gate.
func checkPerfReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rep.Sizes) == 0 {
		return fmt.Errorf("%s: no sizes recorded", path)
	}
	have := map[string]float64{}
	for _, s := range rep.Series {
		if s.ShapesPerSec <= 0 || math.IsNaN(s.ShapesPerSec) || math.IsInf(s.ShapesPerSec, 0) {
			return fmt.Errorf("%s: series %s at %d records has invalid rate %g", path, s.Name, s.Records, s.ShapesPerSec)
		}
		have[fmt.Sprintf("%s@%d", s.Name, s.Records)] = s.ShapesPerSec
	}
	for _, name := range []string{"ingest_serial", "ingest_pooled"} {
		found := false
		for _, s := range rep.Series {
			if s.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: missing series %s", path, name)
		}
	}
	for _, n := range rep.Sizes {
		for _, name := range scanSeriesNames {
			if _, ok := have[fmt.Sprintf("%s@%d", name, n)]; !ok {
				return fmt.Errorf("%s: missing series %s at %d records", path, name, n)
			}
		}
	}
	fmt.Printf("%s: ok (%d series, sizes %v)\n", path, len(rep.Series), rep.Sizes)
	return nil
}
