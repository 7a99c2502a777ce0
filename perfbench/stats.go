package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail: the tail
// is the highest whole percentile that still has this many samples beyond
// it, so a single outlier cannot set it.
const tailBeyond = 10

// dist is a sorted sample of one measured quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank q-th percentile (0 < q <= 100).
func (d dist) at(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(d))))
	rank = max(1, min(rank, len(d)))
	return d[rank-1]
}

func (d dist) median() float64 { return d.at(50) }

func (d dist) sum() float64 {
	var s float64
	for _, x := range d {
		s += x
	}
	return s
}

// tailPercentile returns the highest whole percentile of an n-sample
// distribution with at least tailBeyond samples above its nearest-rank
// value, or an error when n is too small to have a tail at all.
func tailPercentile(n int) (float64, error) {
	if n <= tailBeyond {
		return 0, fmt.Errorf("%d samples: a tail needs more than %d", n, tailBeyond)
	}
	q := math.Floor(100 * float64(n-tailBeyond) / float64(n))
	return q, nil
}

// tail returns the tail value and the percentile it was taken at.
func (d dist) tail() (float64, float64, error) {
	q, err := tailPercentile(len(d))
	if err != nil {
		return 0, 0, err
	}
	return d.at(q), q, nil
}

// tailBlock is the sample count of one block of a long series. A tail taken
// over a whole long run is set by its few worst samples, which a single
// hiccup of a shared host can supply; the median of per-block tails is not.
const tailBlock = 150

// blockTail splits a chronological series into blocks of about tailBlock
// samples (one block when it is shorter than two), takes each block's tail
// and returns the median of those tails, the lowest block tail percentile
// and the block count.
func blockTail(xs []float64) (float64, float64, int, error) {
	nb := max(1, len(xs)/tailBlock)
	tails := make([]float64, 0, nb)
	q := 100.0
	for i := 0; i < nb; i++ {
		v, qi, err := newDist(xs[i*len(xs)/nb : (i+1)*len(xs)/nb]).tail()
		if err != nil {
			return 0, 0, 0, err
		}
		tails = append(tails, v)
		q = min(q, qi)
	}
	return newDist(tails).median(), q, nb, nil
}
