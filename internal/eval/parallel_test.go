package eval

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pharmaverify/internal/ml"
)

// jitterOversample is an RNG-hungry sampler: it duplicates minority
// instances with random noise, consuming a data-dependent number of
// draws from the shared master stream. Any deviation from the
// sequential draw order changes the synthetic instances — exactly the
// hazard the pre-draw phase of CrossValidateCtx exists to prevent.
func jitterOversample(ds *ml.Dataset, rng *rand.Rand) *ml.Dataset {
	out := &ml.Dataset{Dim: ds.Dim}
	for i := range ds.X {
		out.Add(ds.X[i], ds.Y[i], ds.Names[i])
	}
	pos, neg := ds.CountClass(ml.Legitimate), ds.CountClass(ml.Illegitimate)
	for pos < neg {
		i := rng.Intn(ds.Len())
		if ds.Y[i] != ml.Legitimate {
			continue
		}
		x := ds.X[i].Dense(ds.Dim)
		for j := range x {
			x[j] += rng.NormFloat64() * 0.05
		}
		out.Add(ml.NewVector(x), ml.Legitimate, "")
		pos++
	}
	return out
}

// meanClassifier is training-data sensitive: its decision boundary is
// the midpoint of the class means on feature 0, so any change to the
// sampled training set shows up in the scores.
type meanClassifier struct{ mid float64 }

func (c *meanClassifier) Fit(ds *ml.Dataset) error {
	var sumPos, sumNeg float64
	var nPos, nNeg int
	for i := range ds.X {
		if ds.Y[i] == ml.Legitimate {
			sumPos += ds.X[i].At(0)
			nPos++
		} else {
			sumNeg += ds.X[i].At(0)
			nNeg++
		}
	}
	c.mid = (sumPos/float64(nPos) + sumNeg/float64(nNeg)) / 2
	return nil
}
func (c *meanClassifier) Prob(x ml.Vector) float64 { return ml.Sigmoid(4 * (x.At(0) - c.mid)) }
func (c *meanClassifier) Predict(x ml.Vector) int  { return ml.PredictFromProb(c.Prob(x)) }

// TestCrossValidateParallelDeterministic pins the engine's core
// guarantee: with an RNG-consuming sampler in play, the CVResult at
// Workers=1 is identical — scores, labels, confusions, AUCs, test
// indices — to the result at many workers.
func TestCrossValidateParallelDeterministic(t *testing.T) {
	ds := imbalancedDataset(240, 40, 5)
	run := func(workers int) CVResult {
		res, err := CrossValidateCtx(context.Background(), ds, 3, 77,
			func() ml.Classifier { return &meanClassifier{} },
			jitterOversample, CVOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, w := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		par := run(w)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("CVResult differs between Workers=1 and Workers=%d", w)
		}
	}
}

// TestCrossValidateParallelError checks that the parallel run surfaces
// the same (lowest-fold) error a sequential loop would.
func TestCrossValidateParallelError(t *testing.T) {
	ds := imbalancedDataset(120, 20, 6)
	calls := 0
	trainer := func() ml.Classifier {
		calls++
		return &failingClassifier{fail: true}
	}
	_, errSeq := CrossValidateCtx(context.Background(), ds, 3, 9, trainer, nil, CVOptions{Workers: 1})
	_, errPar := CrossValidateCtx(context.Background(), ds, 3, 9, trainer, nil, CVOptions{Workers: 4})
	if errSeq == nil || errPar == nil {
		t.Fatal("expected errors from failing classifier")
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error differs: sequential %q vs parallel %q", errSeq, errPar)
	}
}

type failingClassifier struct{ fail bool }

func (c *failingClassifier) Fit(*ml.Dataset) error { return ml.ErrEmptyDataset }
func (c *failingClassifier) Prob(ml.Vector) float64 {
	return 0.5
}
func (c *failingClassifier) Predict(ml.Vector) int { return 0 }
