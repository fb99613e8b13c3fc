package campaign

import "dyntreecast/internal/stats"

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
// summarizes each cell through internal/stats. Results are walked in
// job-index order and cells are emitted in first-appearance order, so the
// output is independent of execution order. Failed and skipped jobs
// contribute nothing.
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
	for _, cell := range order {
		out = append(out, summarize(cell, byCell[cell]))
	}
	return out
}

// summarize computes one cell's statistics from its values in
// observation order.
func summarize(cell string, xs []float64) CellStats {
	s := stats.Summarize(xs)
	return CellStats{
		Cell:   cell,
		Count:  s.Count,
		Mean:   s.Mean,
		StdDev: s.StdDev,
		Min:    s.Min,
		Max:    s.Max,
		P50:    stats.Percentile(xs, 50),
		P99:    stats.Percentile(xs, 99),
	}
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
