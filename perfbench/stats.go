package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted xs,
// interpolating linearly between the closest ranks. It returns NaN for
// an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is a guess about one or two
// requests, not a property of the system.
const minBeyond = 10

// pct is one percentile of a latency sample with the evidence behind it.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	// OK reports that at least minBeyond samples lie above Value, so
	// the percentile may be reported.
	OK bool `json:"ok"`
}

// percentile returns the p-th percentile (0 < p < 100) of xs, which it
// sorts in place.
func percentile(xs []float64, p float64) pct {
	sort.Float64s(xs)
	v := quantile(xs, p/100)
	beyond := len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	return pct{Value: v, N: len(xs), Beyond: beyond, OK: len(xs) > 0 && beyond >= minBeyond}
}

// blockPercentile cuts xs, in their order, into blocks consecutive
// blocks of (nearly) equal size and returns the median of the blocks'
// p-th percentiles: a slow spell that covers fewer than half the blocks
// does not move it. N counts every sample, Beyond is the smallest count
// beyond any block's percentile, and OK requires every block's
// percentile to be supported.
func blockPercentile(xs []float64, blocks int, p float64) pct {
	out := pct{N: len(xs), OK: len(xs) > 0}
	var vals []float64
	for b := 0; b < blocks; b++ {
		blk := append([]float64(nil), xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks]...)
		q := percentile(blk, p)
		vals = append(vals, q.Value)
		if b == 0 || q.Beyond < out.Beyond {
			out.Beyond = q.Beyond
		}
		out.OK = out.OK && q.OK
	}
	sort.Float64s(vals)
	out.Value = quantile(vals, 0.5)
	return out
}

// exposition is one scrape of a Prometheus text exposition: each series
// (metric name plus its label set, as written) mapped to its value.
type exposition map[string]float64

// parseExposition parses the text format /metrics serves. Comment and
// blank lines are skipped; any other line must be "series value".
func parseExposition(text string) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[series] - before[series]: the change of a counter
// (or a histogram's _sum/_count) over an interval. A series absent from
// a scrape counts as 0, as an unobserved labelled series is.
func delta(before, after exposition, series string) float64 {
	return after[series] - before[series]
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
