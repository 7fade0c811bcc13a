package core

import (
	"context"
	"testing"

	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/webgen"
)

// testSnapshot builds a small but class-faithful snapshot once per test
// binary run.
var snapCache = map[int64]*dataset.Snapshot{}

func testSnapshot(t testing.TB, seed int64) *dataset.Snapshot {
	t.Helper()
	if s, ok := snapCache[seed]; ok {
		return s
	}
	w := webgen.Generate(webgen.Config{
		Seed: seed, NumLegit: 30, NumIllegit: 180, NetworkSize: 30,
	})
	snap, err := dataset.BuildCtx(context.Background(), "test", w, w.Domains(), w.Labels(), dataset.BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	snapCache[seed] = snap
	return snap
}

func TestNewClassifierKinds(t *testing.T) {
	for _, k := range []ClassifierKind{NBM, NB, SVM, J48, MLP} {
		if _, err := NewClassifier(k, 1); err != nil {
			t.Errorf("NewClassifier(%s) = %v", k, err)
		}
	}
	if _, err := NewClassifier("bogus", 1); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestSamplerKinds(t *testing.T) {
	for _, k := range []SamplingKind{NoSampling, Subsampling, SMOTE, ""} {
		if _, err := Sampler(k); err != nil {
			t.Errorf("Sampler(%q) = %v", k, err)
		}
	}
	if _, err := Sampler("bogus"); err == nil {
		t.Error("bogus sampling accepted")
	}
}

func TestMajorityBaseline(t *testing.T) {
	ds := &ml.Dataset{Dim: 1}
	for i := 0; i < 9; i++ {
		ds.Add(ml.Vector{}, ml.Illegitimate, "")
	}
	ds.Add(ml.Vector{}, ml.Legitimate, "")
	var m MajorityBaseline
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if m.Predict(ml.Vector{}) != ml.Illegitimate {
		t.Error("majority wrong")
	}
}

func TestTFIDFTextCVShape(t *testing.T) {
	snap := testSnapshot(t, 1)
	// SVM on TF-IDF must clearly beat the 180/210 ≈ 0.857 majority rate.
	res, err := TextCV(snap, TextConfig{Classifier: SVM, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Mean(eval.MetricAccuracy); acc < 0.95 {
		t.Errorf("SVM TF-IDF accuracy = %v", acc)
	}
	if auc := res.Mean(eval.MetricAUC); auc < 0.95 {
		t.Errorf("SVM TF-IDF AUC = %v", auc)
	}
}

func TestNBMTextCV(t *testing.T) {
	snap := testSnapshot(t, 1)
	res, err := TextCV(snap, TextConfig{Classifier: NBM, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if auc := res.Mean(eval.MetricAUC); auc < 0.95 {
		t.Errorf("NBM AUC = %v", auc)
	}
}

func TestJ48WithSMOTE(t *testing.T) {
	snap := testSnapshot(t, 1)
	res, err := TextCV(snap, TextConfig{Classifier: J48, Sampling: SMOTE, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Mean(eval.MetricAccuracy); acc < 0.85 {
		t.Errorf("J48+SMOTE accuracy = %v", acc)
	}
}

func TestNGGTextCV(t *testing.T) {
	if testing.Short() {
		t.Skip("slow model training; skipped in -short")
	}
	snap := testSnapshot(t, 1)
	res, err := TextCV(snap, TextConfig{
		Representation: NGramGraphs, Classifier: MLP, Terms: 250, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Mean(eval.MetricAccuracy); acc < 0.9 {
		t.Errorf("MLP NGG accuracy = %v", acc)
	}
}

func TestNetworkCVShape(t *testing.T) {
	snap := testSnapshot(t, 1)
	res, err := NetworkCV(snap, NetworkConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Mean(eval.MetricAccuracy)
	if acc < 0.85 {
		t.Errorf("network accuracy = %v", acc)
	}
	// The paper's key shape: network legit recall is mediocre (~0.73)
	// because isolated legitimate pharmacies receive no trust.
	rec := res.Mean(eval.MetricLegitRecall)
	if rec < 0.4 || rec > 0.98 {
		t.Errorf("network legit recall = %v, want mid-range", rec)
	}
	// Illegitimate precision and recall stay high.
	if ip := res.Mean(eval.MetricIllegitPrecision); ip < 0.9 {
		t.Errorf("network illegit precision = %v", ip)
	}
}

func TestNetworkVariants(t *testing.T) {
	snap := testSnapshot(t, 1)
	for _, v := range []NetworkVariant{TrustRankUndirected, TrustRankDirected, AntiTrust, PageRankBaseline} {
		if _, err := NetworkCV(snap, NetworkConfig{Variant: v, Seed: 7}); err != nil {
			t.Errorf("variant %s: %v", v, err)
		}
	}
	if _, err := NetworkCV(snap, NetworkConfig{Variant: "bogus", Seed: 7}); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestTextBeatsNetworkOnAUC(t *testing.T) {
	snap := testSnapshot(t, 1)
	textRes, err := TextCV(snap, TextConfig{Classifier: NBM, Terms: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := NetworkCV(snap, NetworkConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if textRes.Mean(eval.MetricAUC) <= netRes.Mean(eval.MetricAUC) {
		t.Errorf("paper shape violated: text AUC %v <= network AUC %v",
			textRes.Mean(eval.MetricAUC), netRes.Mean(eval.MetricAUC))
	}
}

func TestEnsembleCV(t *testing.T) {
	if testing.Short() {
		t.Skip("slow model training; skipped in -short")
	}
	snap := testSnapshot(t, 1)
	res, err := EnsembleCVCtx(context.Background(), snap, EnsembleConfig{Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if auc := res.Mean(eval.MetricAUC); auc < 0.95 {
		t.Errorf("ensemble AUC = %v", auc)
	}
}

func TestRankCV(t *testing.T) {
	snap := testSnapshot(t, 1)
	res, err := RankCV(snap, RankConfig{Classifier: NBM, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairwiseOrderedness < 0.9 {
		t.Errorf("pairord = %v", res.PairwiseOrderedness)
	}
	if len(res.Ranking) != snap.Len() {
		t.Errorf("ranking covers %d of %d", len(res.Ranking), snap.Len())
	}
	// The top of the list should be mostly legitimate.
	topLegit := 0
	for _, r := range res.Ranking[:10] {
		if r.Label == ml.Legitimate {
			topLegit++
		}
	}
	if topLegit < 6 {
		t.Errorf("only %d/10 top-ranked are legitimate", topLegit)
	}
}

func TestRankCVNGG(t *testing.T) {
	if testing.Short() {
		t.Skip("slow model training; skipped in -short")
	}
	snap := testSnapshot(t, 1)
	res, err := RankCV(snap, RankConfig{Representation: NGramGraphs, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairwiseOrderedness < 0.85 {
		t.Errorf("NGG pairord = %v", res.PairwiseOrderedness)
	}
}

func TestOutliers(t *testing.T) {
	ranking := []RankedPharmacy{
		{Domain: "a", Label: ml.Legitimate, Score: 5},
		{Domain: "b", Label: ml.Illegitimate, Score: 4},
		{Domain: "c", Label: ml.Legitimate, Score: 3},
		{Domain: "d", Label: ml.Illegitimate, Score: 2},
		{Domain: "e", Label: ml.Legitimate, Score: 1},
	}
	hi, lo := Outliers(ranking, 1)
	if len(hi) != 1 || hi[0].Domain != "b" {
		t.Errorf("illegit outliers = %v", hi)
	}
	if len(lo) != 1 || lo[0].Domain != "e" {
		t.Errorf("legit outliers = %v", lo)
	}
}

func TestDriftStudy(t *testing.T) {
	w1 := webgen.Generate(webgen.Config{Seed: 2, Snapshot: 1, NumLegit: 20, NumIllegit: 100, NetworkSize: 25})
	w2 := webgen.Generate(webgen.Config{Seed: 2, Snapshot: 2, NumLegit: 20, NumIllegit: 90, IllegitOffset: 100, NetworkSize: 25})
	s1, err := dataset.BuildCtx(context.Background(), "d1", w1, w1.Domains(), w1.Labels(), dataset.BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dataset.BuildCtx(context.Background(), "d2", w2, w2.Domains(), w2.Labels(), dataset.BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DriftStudy(s1, s2, TextConfig{Classifier: NBM, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []DriftCell{OldOld, NewNew, OldNew} {
		if res.AUC[cell] == 0 {
			t.Errorf("missing AUC for %s", cell)
		}
	}
	// Paper shape: AUC stays roughly stable across time...
	if res.AUC[OldNew] < res.AUC[OldOld]-0.15 {
		t.Errorf("Old-New AUC collapsed: %v vs %v", res.AUC[OldNew], res.AUC[OldOld])
	}
	// ...while stale models lose legitimate precision on new data.
	if res.LegitPrecision[OldNew] > res.LegitPrecision[OldOld]+0.02 {
		t.Errorf("legit precision should not improve on drifted data: %v vs %v",
			res.LegitPrecision[OldNew], res.LegitPrecision[OldOld])
	}
}

func TestVerifierTrainAssess(t *testing.T) {
	snap := testSnapshot(t, 1)
	v, err := Train(snap, Options{Classifier: SVM, Terms: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	as := v.Assess(snap.Pharmacies)
	if len(as) != snap.Len() {
		t.Fatalf("assessed %d of %d", len(as), snap.Len())
	}
	var correct int
	for i, a := range as {
		want := snap.Pharmacies[i].Label == ml.Legitimate
		if a.Legitimate == want {
			correct++
		}
		if a.Rank != a.TextProb+a.TrustScore {
			t.Fatal("rank must be textRank + networkRank")
		}
	}
	if acc := float64(correct) / float64(len(as)); acc < 0.9 {
		t.Errorf("verifier training-set accuracy = %v", acc)
	}

	ranked := RankAssessments(as)
	if ranked[0].Rank < ranked[len(ranked)-1].Rank {
		t.Error("RankAssessments not descending")
	}
}

func TestTrainEmptySnapshot(t *testing.T) {
	if _, err := Train(&dataset.Snapshot{}, Options{}); err != ErrNoTraining {
		t.Errorf("empty snapshot: %v", err)
	}
}

func TestCombinedFeaturesCV(t *testing.T) {
	snap := testSnapshot(t, 1)
	res, err := CombinedFeaturesCV(snap, SVM, 250, 3, 7, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Mean(eval.MetricAccuracy); acc < 0.9 {
		t.Errorf("combined accuracy = %v", acc)
	}
}
