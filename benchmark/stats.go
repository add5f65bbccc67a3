package main

import "sort"

// summary is what the benchmark reports for one metric of one workload over
// the fresh-process repetitions. Value is the number the metric is judged
// by: the median.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the acceptance check computes.
func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	quartile := func(i int) float64 {
		ld, m := len(data), len(data)+1
		if ld == 1 {
			return data[0]
		}
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	s.Q1, s.Median, s.Q3 = quartile(1), quartile(2), quartile(3)
	s.Value = s.Median
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
