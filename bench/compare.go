package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// A run set is a file of runRecord lines (bench -out). -compare reads two
// of them and judges b against a, workload by workload and metric by
// metric, by the bounds in spec.go.

func readRunSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// valuesOf collects a metric's values over the untraced runs of a workload.
func valuesOf(set []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, rec := range set {
		if rec.Workload != workload || rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if v, ok := rec.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge applies one metric's bound: unresolved when either side's own
// run-to-run spread is wider than the bound (the runs cannot tell a change
// of that size from noise), regressed when b's median is worse than a's by
// more than the bound, ok otherwise.
func judge(m metricSpec, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	if (len(a) > 1 && spread(a) > m.Bound) || (len(b) > 1 && spread(b) > m.Bound) {
		return verdictUnresolved, worse
	}
	if worse > m.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// sameConditions refuses run sets taken with different window lengths or on
// hosts with different core counts: such numbers differ for reasons no
// change to the code explains.
func sameConditions(sets ...[]runRecord) error {
	type facts struct {
		seconds           float64
		nproc, gomaxprocs int
	}
	var first *facts
	for _, set := range sets {
		for _, rec := range set {
			f := facts{rec.Seconds, rec.Host.NumCPU, rec.Host.GOMAXPROCS}
			if first == nil {
				first = &f
			} else if f != *first {
				return fmt.Errorf("runs are not comparable: seconds/nproc/gomaxprocs %v in one run, %v in another", *first, f)
			}
		}
	}
	return nil
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether any row regressed. A failed or incorrect run on either side is a
// regression of its workload.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	if err := sameConditions(a, b); err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a.median", "b.median", "a.iqr", "b.iqr", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, set := range [][]runRecord{a, b} {
			for _, rec := range set {
				if rec.Workload == wl.Name && rec.Result != nil && !rec.Result.Correct {
					fmt.Fprintf(w, "%-13s a run reported failed=%d of %d: regressed\n", wl.Name, rec.Result.Failed, rec.Result.Attempted)
					regressed = true
				}
			}
		}
		for _, m := range endToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := judge(m, va, vb)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*spread(va), 100*spread(vb), 100*worse, 100*m.Bound, v)
		}
	}
	return regressed, nil
}
