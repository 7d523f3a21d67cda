package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified. It returns 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive values in xs (0 when
// there are none).
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples collects latencies keyed by a label (a kernel name, or a
// tenant/kernel pair).
type samples map[string][]float64

func (s samples) add(key string, v float64) { s[key] = append(s[key], v) }

// medians returns each key's median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}

func inf() float64 { return math.Inf(1) }
