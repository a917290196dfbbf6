package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// A recorded run is one line of a -record file.
type recordedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

// record appends the run to path, one JSON object per line.
func record(path string, run recordedRun) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(run)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRuns(path string) ([]recordedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []recordedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r recordedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them, which is what the driver of
// this benchmark uses; they need two values.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	at := func(k float64) float64 {
		pos := k * float64(len(xs)+1) / 4 // 1-based
		j := int(pos)
		j = min(max(j, 1), len(xs)-1)
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}

const minPairs = 10 // below this many pairs no gain is claimed

// A verdict is the outcome for one metric on one workload, with the
// numbers it rests on.
type verdict struct {
	workload, metric, unit string
	pairs, wins, losses    int
	medianA, medianB       float64
	spreadA                float64 // inter-quartile distance of A over its median
	bound                  float64
	outcome                string
}

// judge applies section 8 of the choosing-metrics guide to the paired
// values a (parent) and b (change) of one metric. A gain needs ten pairs,
// nine tenths of them won, and medians further apart than the parent's own
// quartiles; a regression is a median worse by more than the metric's
// bound; a metric whose own spread exceeds its bound can be neither
// unchanged nor improved.
func judge(a, b []float64, higherIsBetter bool, bound float64, moreFailures bool) verdict {
	v := verdict{pairs: min(len(a), len(b)), bound: bound}
	v.medianA, v.medianB = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	iqr := 0.0
	if len(a) >= 2 {
		q1, q3 := quartiles(a)
		iqr = q3 - q1
	}
	if v.medianA != 0 {
		v.spreadA = iqr / v.medianA
	}
	better := func(x, y float64) bool { // x better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(b[i], a[i]):
			v.wins++
		case better(a[i], b[i]):
			v.losses++
		}
	}
	worseBy := 0.0
	if v.medianA != 0 {
		worseBy = (v.medianB - v.medianA) / v.medianA
		if higherIsBetter {
			worseBy = -worseBy
		}
	}
	apart := v.medianB - v.medianA
	if apart < 0 {
		apart = -apart
	}
	switch {
	case bound > 0 && worseBy > bound:
		v.outcome = "regressed"
	case bound > 0 && v.spreadA > bound:
		v.outcome = "unresolved"
	case better(v.medianB, v.medianA) && apart > iqr && 10*v.wins >= 9*v.pairs:
		if v.pairs < minPairs || moreFailures {
			v.outcome = "unresolved"
		} else {
			v.outcome = "improved"
		}
	default:
		v.outcome = "unchanged"
	}
	return v
}

// compare prints one row per metric and workload present in both files,
// and reports whether any row regressed.
func compare(sp *spec, pathA, pathB string, out io.Writer) (regressed bool, err error) {
	runsA, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	type side struct {
		values            map[string][]float64
		attempted, failed int
	}
	collect := func(runs []recordedRun, workload string) side {
		s := side{values: map[string][]float64{}}
		for _, r := range runs {
			if r.Workload != workload {
				continue
			}
			s.attempted += r.Result.Attempted
			s.failed += r.Result.Failed
			for name, m := range r.Result.Metrics {
				s.values[name] = append(s.values[name], m.Value)
			}
		}
		return s
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tmedian A\tmedian B\tB/A (base A)\tIQR A/median\tbound\twins-losses\tverdict")
	for _, workload := range sp.workloadNames() {
		a, b := collect(runsA, workload), collect(runsB, workload)
		if a.attempted == 0 || b.attempted == 0 {
			continue
		}
		shareA, shareB := float64(a.failed)/float64(a.attempted), float64(b.failed)/float64(b.attempted)
		fmt.Fprintf(tw, "%s\tfailed operations\t\t%d of %d\t%d of %d\t\t\t\t\t\n", workload, a.failed, a.attempted, b.failed, b.attempted)
		for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			for _, m := range list {
				if len(a.values[m.Name]) == 0 || len(b.values[m.Name]) == 0 {
					continue
				}
				v := judge(a.values[m.Name], b.values[m.Name], m.Better == "higher", m.Bound, shareB > shareA)
				ratioBA := "n/a"
				if v.medianA != 0 {
					ratioBA = fmt.Sprintf("%.3f (%.4g %s)", v.medianB/v.medianA, v.medianA, m.Unit)
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%s\t%.3f\t%.2f\t%d-%d\t%s\n",
					workload, m.Name, v.pairs, v.medianA, v.medianB, ratioBA, v.spreadA, v.bound, v.wins, v.losses, v.outcome)
				regressed = regressed || v.outcome == "regressed"
			}
		}
	}
	return regressed, tw.Flush()
}
