package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// loadResults reads a result file: one result object or an array.
func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*result
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []*result{&one}, nil
}

// Verdicts, per the metrics guide's rule for small sandboxes.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// minPairs is how many alternating pairs a gain needs before it can be
// claimed at all.
const minPairs = 10

// judge compares paired runs of one metric on one workload. A gain (or
// a loss of the same strength) needs at least minPairs pairs, nine
// tenths of them won (ties count for neither side), and medians further
// apart than the parent's own interquartile range. Otherwise the change
// is within the bound — unless either side's spread is wider than the
// bound, in which case nothing can be said: unresolved, never unchanged.
func judge(m e2eMetric, olds, news []float64) (verdict string, wins, losses int) {
	pairs := min(len(olds), len(news))
	for i := 0; i < pairs; i++ {
		switch {
		case news[i] == olds[i]:
		case (news[i] > olds[i]) == m.higher:
			wins++
		default:
			losses++
		}
	}
	mo, mn := median(olds), median(news)
	worseBy := (mn - mo) / mo // share of the parent's median, positive when worse
	if m.higher {
		worseBy = -worseBy
	}
	if pairs >= 2 {
		q1, q3 := quartiles(olds)
		gap := mn - mo
		if gap < 0 {
			gap = -gap
		}
		if pairs >= minPairs && gap > q3-q1 {
			if float64(wins) >= 0.9*float64(pairs) {
				return verdictBetter, wins, losses
			}
			if float64(losses) >= 0.9*float64(pairs) {
				return verdictWorse, wins, losses
			}
		}
		if spread(olds) > m.bound || spread(news) > m.bound {
			return verdictUnresolved, wins, losses
		}
	}
	if worseBy > m.bound {
		return verdictWorse, wins, losses
	}
	if pairs < 2 {
		return verdictUnresolved, wins, losses // one run has no spread to judge by
	}
	return verdictUnchanged, wins, losses
}

// compareFiles prints one row per (workload, end-to-end metric) and per
// (workload, count metric) for result files given as old new old new ...
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) < 2 || len(paths)%2 != 0 {
		return fmt.Errorf("-compare takes pairs of result files: old.json new.json [old.json new.json ...]")
	}
	type key struct{ workload, metric string }
	type sides struct{ olds, news []float64 }
	timed := map[key]*sides{}
	counts := map[key]*sides{}
	add := func(into map[key]*sides, k key, v float64, isNew bool) {
		s := into[k]
		if s == nil {
			s = &sides{}
			into[k] = s
		}
		if isNew {
			s.news = append(s.news, v)
		} else {
			s.olds = append(s.olds, v)
		}
	}
	failed := 0
	for i, path := range paths {
		results, err := loadResults(path)
		if err != nil {
			return err
		}
		for _, res := range results {
			failed += res.Failed
			if !res.Trace {
				for _, m := range e2eMetrics {
					if v, ok := res.Metrics[m.name]; ok {
						add(timed, key{res.Workload, m.name}, v.Value, i%2 == 1)
					}
				}
				continue
			}
			for _, name := range countMetrics {
				if v, ok := res.Metrics[name]; ok {
					add(counts, key{res.Workload, name}, v.Value, i%2 == 1)
				}
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\twins/pairs\tverdict")
	cell := func(xs []float64) string {
		if len(xs) < 2 {
			return fmt.Sprintf("%.5g", median(xs))
		}
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
	}
	for _, wl := range workloadNames() {
		for _, m := range e2eMetrics {
			s := timed[key{wl, m.name}]
			if s == nil || len(s.olds) == 0 || len(s.news) == 0 {
				continue
			}
			verdict, wins, _ := judge(m, s.olds, s.news)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", wl, m.name, m.unit,
				cell(s.olds), cell(s.news), wins, min(len(s.olds), len(s.news)), verdict)
		}
		for _, name := range countMetrics {
			s := counts[key{wl, name}]
			if s == nil || len(s.olds) == 0 || len(s.news) == 0 {
				continue
			}
			verdict := "identical"
			for _, v := range append(append([]float64(nil), s.olds...), s.news...) {
				if v != s.olds[0] {
					verdict = "differs"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\tcount\t%.6g\t%.6g\t-\t%s\n", wl, name, median(s.olds), median(s.news), verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "failed checks across all files: %d\n", failed)
	return nil
}
