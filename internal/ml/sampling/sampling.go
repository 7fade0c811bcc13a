// Package sampling implements the class-rebalancing techniques the paper
// evaluates for the strongly imbalanced pharmacy datasets (12%
// legitimate vs 88% illegitimate): random undersampling of the majority
// class ("SUB"), random oversampling with replacement, and SMOTE
// synthetic minority oversampling (Chawla et al., JAIR 2002).
//
// All functions leave the input dataset untouched and return a new one;
// they are designed to plug into eval.CrossValidateCtx as Samplers so that
// rebalancing only ever touches the training split.
package sampling

import (
	"math/rand"
	"sort"

	"pharmaverify/internal/ml"
)

// minorityMajority identifies the minority and majority classes of ds.
func minorityMajority(ds *ml.Dataset) (minority, majority int) {
	if ds.CountClass(ml.Legitimate) <= ds.CountClass(ml.Illegitimate) {
		return ml.Legitimate, ml.Illegitimate
	}
	return ml.Illegitimate, ml.Legitimate
}

func classIndices(ds *ml.Dataset, y int) []int {
	var idx []int
	for i, l := range ds.Y {
		if l == y {
			idx = append(idx, i)
		}
	}
	return idx
}

// Undersample randomly removes majority-class instances until both
// classes have the same size (the paper's "SUB" / Weka SpreadSubsample
// with distribution 1.0).
func Undersample(ds *ml.Dataset, rng *rand.Rand) *ml.Dataset {
	minC, majC := minorityMajority(ds)
	minIdx := classIndices(ds, minC)
	majIdx := classIndices(ds, majC)
	if len(minIdx) == 0 || len(majIdx) == 0 {
		return ds.Subset(allIndices(ds))
	}
	rng.Shuffle(len(majIdx), func(i, j int) { majIdx[i], majIdx[j] = majIdx[j], majIdx[i] })
	keep := append(append([]int{}, minIdx...), majIdx[:len(minIdx)]...)
	sort.Ints(keep)
	return ds.Subset(keep)
}

// Oversample duplicates random minority-class instances with
// replacement ("data space" oversampling) until both classes have the
// same size.
func Oversample(ds *ml.Dataset, rng *rand.Rand) *ml.Dataset {
	minC, majC := minorityMajority(ds)
	minIdx := classIndices(ds, minC)
	majIdx := classIndices(ds, majC)
	out := ds.Subset(allIndices(ds))
	if len(minIdx) == 0 {
		return out
	}
	for i := len(minIdx); i < len(majIdx); i++ {
		src := minIdx[rng.Intn(len(minIdx))]
		name := ""
		if src < len(ds.Names) {
			name = ds.Names[src]
		}
		out.Add(ds.X[src], minC, name)
	}
	return out
}

// SMOTEConfig configures the SMOTE oversampler.
type SMOTEConfig struct {
	// K is the number of nearest neighbors considered (default 5).
	K int
	// Percent is the amount of oversampling in percent of the minority
	// size (e.g. 200 doubles it twice). When 0, SMOTE balances the two
	// classes exactly.
	Percent int
}

// SMOTE generates synthetic minority-class examples by interpolating
// between each minority instance and its k nearest minority neighbors,
// operating in feature space as described by Chawla et al. The returned
// dataset contains all original instances plus the synthetic ones
// (named "smote:<n>").
func SMOTE(ds *ml.Dataset, rng *rand.Rand, cfg SMOTEConfig) *ml.Dataset {
	k := cfg.K
	if k <= 0 {
		k = 5
	}
	minC, majC := minorityMajority(ds)
	minIdx := classIndices(ds, minC)
	majIdx := classIndices(ds, majC)
	out := ds.Subset(allIndices(ds))
	if len(minIdx) < 2 {
		return out
	}

	need := cfg.Percent * len(minIdx) / 100
	if cfg.Percent == 0 {
		need = len(majIdx) - len(minIdx)
	}
	if need <= 0 {
		return out
	}
	if k >= len(minIdx) {
		k = len(minIdx) - 1
	}

	neigh := nearestNeighbors(ds, minIdx, k)
	for s := 0; s < need; s++ {
		i := s % len(minIdx)
		src := minIdx[i]
		nn := neigh[i][rng.Intn(len(neigh[i]))]
		t := rng.Float64()
		synth := ml.Lerp(ds.X[src], ds.X[nn], t)
		out.Add(synth, minC, "smote")
	}
	return out
}

// nearestNeighbors returns, for each position i in idx, the dataset
// indices of the k nearest other members of idx under Euclidean
// distance.
func nearestNeighbors(ds *ml.Dataset, idx []int, k int) [][]int {
	type distIdx struct {
		d float64
		j int
	}
	out := make([][]int, len(idx))
	for i, a := range idx {
		cands := make([]distIdx, 0, len(idx)-1)
		for _, b := range idx {
			if a == b {
				continue
			}
			cands = append(cands, distIdx{ml.SquaredDistance(ds.X[a], ds.X[b]), b})
		}
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].d != cands[y].d {
				return cands[x].d < cands[y].d
			}
			return cands[x].j < cands[y].j
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		nn := make([]int, len(cands))
		for j, c := range cands {
			nn[j] = c.j
		}
		out[i] = nn
	}
	return out
}

func allIndices(ds *ml.Dataset) []int {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Samplers keyed by the abbreviations used in the paper's tables.
// "NO" is the natural distribution (nil sampler).
var (
	// SUB is the undersampling Sampler.
	SUB = func(ds *ml.Dataset, rng *rand.Rand) *ml.Dataset { return Undersample(ds, rng) }
	// SMOTEBalanced is the SMOTE Sampler that balances the two classes.
	SMOTEBalanced = func(ds *ml.Dataset, rng *rand.Rand) *ml.Dataset {
		return SMOTE(ds, rng, SMOTEConfig{K: 5})
	}
)
