package campaign

import (
	"math"
	"slices"
)

// CellStats summarizes every measurement that landed in one cell:
// count/mean/min/max plus the tail percentiles the sweep tables report.
type CellStats struct {
	Cell   string  `json:"cell"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// Aggregate pools the measurements of successful jobs by cell and
// summarizes each cell as RunSpec does. Results are walked in job-index
// order and cells are emitted in first-appearance order, so the output
// is independent of execution order. Failed and skipped jobs contribute
// nothing.
//
// Deprecated: part of the job-per-trial adapter (see Run).
func Aggregate(results []JobResult) []CellStats {
	byCell := map[string][]float64{}
	var order []string
	for _, r := range results {
		if r.Err != nil || r.Skipped {
			continue
		}
		for _, m := range r.Measurements {
			if _, seen := byCell[m.Cell]; !seen {
				order = append(order, m.Cell)
			}
			byCell[m.Cell] = append(byCell[m.Cell], m.Value)
		}
	}
	out := make([]CellStats, 0, len(order))
	var sorted []float64
	for _, cell := range order {
		out = append(out, summarize(cell, byCell[cell], &sorted))
	}
	return out
}

// SummarizeRounds summarizes one cell from its trials' round counts, in
// trial order — bit for bit the statistics RunSpec reports for them.
func SummarizeRounds(cell string, rounds []uint32) CellStats {
	var sorted []uint32
	return summarize(cell, rounds, &sorted)
}

// summarize computes one cell's statistics from its values in
// observation order, exactly as internal/stats would: the sum and the
// squared deviations are folded in that order, so Mean and StdDev match
// stats.Summarize bit for bit, and min, max, P50 and P99 are read off
// one sorted copy, kept in *sorted for the next cell to reuse. sorted
// may alias xs, whose order is then lost.
func summarize[T uint32 | float64](cell string, xs []T, sorted *[]T) CellStats {
	n := len(xs)
	if n == 0 {
		return CellStats{Cell: cell}
	}
	sum := 0.0
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(n)
	stddev := 0.0
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := float64(x) - mean
			ss += d * d
		}
		stddev = math.Sqrt(ss / float64(n-1))
	}
	s := append((*sorted)[:0], xs...)
	slices.Sort(s)
	*sorted = s
	return CellStats{Cell: cell, Count: n, Mean: mean, StdDev: stddev,
		Min: float64(s[0]), Max: float64(s[n-1]), P50: percentile(s, 50), P99: percentile(s, 99)}
}

// percentile is stats.Percentile on an already sorted, non-empty sample:
// linear interpolation between the closest ranks.
func percentile[T uint32 | float64](sorted []T, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := rank - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// CellByKey returns the stats of the named cell, or false if the campaign
// produced no measurements for it.
func CellByKey(cells []CellStats, key string) (CellStats, bool) {
	for _, c := range cells {
		if c.Cell == key {
			return c, true
		}
	}
	return CellStats{}, false
}
