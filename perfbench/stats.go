package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencySummary is a latency distribution: its median and its tail, the
// highest percentile with at least tailBeyond samples above it.
type latencySummary struct {
	Samples  int     `json:"samples"`
	P50ms    float64 `json:"p50_ms"`
	TailPct  float64 `json:"tail_pct"`
	TailMs   float64 `json:"tail_ms"`
	TailRank int     `json:"tail_samples_beyond"`
}

// hdMaxSamples bounds the samples hdMedian weighs; beyond it the
// Harrell-Davis estimate and the sample median agree to well within the
// run-to-run spread.
const hdMaxSamples = 2000

// hdMedian estimates the median of sorted (ascending) samples. Up to
// hdMaxSamples it is the Harrell-Davis estimator, a Beta((n+1)/2, (n+1)/2)
// weighted mean of the order statistics: with a handful of samples from a
// spread-out distribution the sample median is a single order statistic that
// jumps from run to run, while the weighted mean moves smoothly. Larger
// samples get the sample median.
func hdMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 || n > hdMaxSamples {
		return median(sorted)
	}
	a := float64(n+1) / 2
	var est, prev float64
	for i := 1; i <= n; i++ {
		cdf := betaCDF(float64(i)/float64(n), a, a)
		est += (cdf - prev) * sorted[i-1]
		prev = cdf
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b), evaluated
// by its continued fraction (modified Lentz).
func betaCDF(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - betaCDF(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < 1e-14 {
			break
		}
	}
	return front * f / a
}

// summarizeCycles summarizes a run's latencies. The p50 is the mean over
// cycles of each cycle's median (hdMedian): every run visits the same cluster seeds,
// whose latency levels differ, and the median of the pooled mixture falls
// between those levels where a few samples move it far. The tail is that of
// the pooled samples.
func summarizeCycles(cycles [][]time.Duration) latencySummary {
	var pooled []time.Duration
	var p50s []float64
	for _, c := range cycles {
		pooled = append(pooled, c...)
		if len(c) > 0 {
			p50s = append(p50s, hdMedian(sortedMs(c)))
		}
	}
	s := summarize(pooled)
	s.P50ms = mean(p50s)
	return s
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail rests on more than a handful of outliers.
const tailBeyond = 10

// sortedMs returns the latencies in milliseconds, ascending.
func sortedMs(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

func summarize(lat []time.Duration) latencySummary {
	n := len(lat)
	if n == 0 {
		return latencySummary{}
	}
	ms := sortedMs(lat)
	idx := n - 1 - tailBeyond
	if idx < 0 {
		idx = n - 1
	}
	return latencySummary{
		Samples:  n,
		P50ms:    median(ms),
		TailPct:  100 * float64(idx+1) / float64(n),
		TailMs:   ms[idx],
		TailRank: n - 1 - idx,
	}
}
