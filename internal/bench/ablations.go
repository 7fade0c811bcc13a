package bench

import (
	"context"
	"fmt"

	"pharmaverify/internal/core"
	"pharmaverify/internal/eval"
)

// AblationA1 sweeps the sampling techniques per classifier (the study
// behind the paper's "for each classifier we present only the sampling
// technique that performed best").
func AblationA1(e *Env) (*Table, error) {
	terms := pickTerms(e, 1000)
	t := &Table{
		ID:     "Ablation A1",
		Title:  "Sampling technique × classifier (TF-IDF, AUC / legit recall)",
		Header: []string{"clf", "smp", "AUC", "legit recall", "accuracy"},
		Notes: []string{
			"paper: sampling choice barely moves NBM and SVM; J48 improves substantially with SMOTE",
		},
	}
	for _, clf := range []core.ClassifierKind{core.NBM, core.SVM, core.J48} {
		for _, smp := range []core.SamplingKind{core.NoSampling, core.Subsampling, core.SMOTE} {
			res, err := e.TextResult(core.TFIDF, clf, smp, terms)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(clf), string(smp),
				f2(res.Mean(eval.MetricAUC)),
				f2(res.Mean(eval.MetricLegitRecall)),
				f2(res.Mean(eval.MetricAccuracy)))
		}
	}
	return t, nil
}

// AblationA2 compares the paper's ensemble against the future-work
// alternative of feeding a single classifier the combined text+network
// features (§7b).
func AblationA2(e *Env) (*Table, error) {
	terms := pickTerms(e, 1000)
	t := &Table{
		ID:     "Ablation A2",
		Title:  "Ensemble selection vs combined text+network features",
		Header: []string{"approach", "Acc.", "AUC", "legit recall"},
	}
	ens, err := core.EnsembleCVCtx(context.Background(), e.Snap1, core.EnsembleConfig{Terms: terms, Seed: e.Scale.Seed})
	if err != nil {
		return nil, err
	}
	t.AddRow("Ensemble Selection",
		f2(ens.Mean(eval.MetricAccuracy)), f2(ens.Mean(eval.MetricAUC)), f2(ens.Mean(eval.MetricLegitRecall)))

	for _, clf := range []core.ClassifierKind{core.SVM, core.J48} {
		comb, err := core.CombinedFeaturesCV(e.Snap1, clf, terms, 3, e.Scale.Seed, core.NetworkConfig{})
		if err != nil {
			return nil, err
		}
		t.AddRow("Combined features ("+string(clf)+")",
			f2(comb.Mean(eval.MetricAccuracy)), f2(comb.Mean(eval.MetricAUC)), f2(comb.Mean(eval.MetricLegitRecall)))
	}
	return t, nil
}

// AblationA3 compares the trust-propagation variants (TrustRank as
// used, strictly-directed TrustRank, Anti-TrustRank from illegitimate
// seeds, and unseeded PageRank).
func AblationA3(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "Link-analysis variants (scores → NB classifier)",
		Header: []string{"variant", "Acc.", "AUC", "legit recall", "illegit recall"},
		Notes: []string{
			"directed TrustRank starves pharmacies of trust (out-links only); PageRank has no supervision — both should trail the symmetrized TrustRank",
		},
	}
	for _, v := range []core.NetworkVariant{
		core.TrustRankUndirected, core.TrustRankDirected,
		core.AntiTrust, core.PageRankBaseline,
	} {
		res, err := e.NetworkResult(v)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(v),
			f2(res.Mean(eval.MetricAccuracy)),
			f2(res.Mean(eval.MetricAUC)),
			f2(res.Mean(eval.MetricLegitRecall)),
			f2(res.Mean(eval.MetricIllegitRecall)))
	}
	return t, nil
}

// AblationA5 compares the paper's random term subsampling against
// information-gain feature selection at equal feature budgets — an
// extension of the "richer input" direction in the paper's future work.
func AblationA5(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Ablation A5",
		Title:  "Random term subsampling vs information-gain feature selection (SVM)",
		Header: []string{"k", "random subsample AUC", "IG selection AUC", "random acc", "IG acc"},
		Notes: []string{
			"IG selection concentrates on the class-indicative terms; at small budgets it should match or beat random subsampling",
		},
	}
	for _, k := range []int{100, 250} {
		if !containsInt(e.Scale.TermSizes, k) {
			continue
		}
		random, err := e.TextResult(core.TFIDF, core.SVM, core.NoSampling, k)
		if err != nil {
			return nil, err
		}
		ig, err := core.FeatureSelectionCV(e.Snap1, core.SVM, k, 3, e.Scale.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(sizeLabel(k),
			f2(random.Mean(eval.MetricAUC)), f2(ig.Mean(eval.MetricAUC)),
			f2(random.Mean(eval.MetricAccuracy)), f2(ig.Mean(eval.MetricAccuracy)))
	}
	return t, nil
}

// AblationA6 evaluates the paper's future-work extension (a): adding
// non-pharmacy websites that point TO pharmacies (health portals and
// review directories) to the link graph before running TrustRank. The
// inbound edges rescue the isolated legitimate pharmacies that the
// base network analysis misses, lifting legitimate recall.
func AblationA6(e *Env) (*Table, error) {
	base, err := e.NetworkResult(core.TrustRankUndirected)
	if err != nil {
		return nil, err
	}
	rich, err := core.NetworkCV(e.Snap1, core.NetworkConfig{
		Seed: e.Scale.Seed, IncludeAuxiliary: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation A6",
		Title:  "Network analysis with inbound directory links (future work a)",
		Header: []string{"graph", "Acc.", "AUC", "legit recall", "legit precision"},
		Notes: []string{
			fmt.Sprintf("auxiliary sites in graph: %d health portals / review directories", len(e.Snap1.Aux)),
			"expected: inbound links lift legitimate recall over the base pharmacy-only graph",
		},
	}
	add := func(name string, r eval.CVResult) {
		t.AddRow(name,
			f2(r.Mean(eval.MetricAccuracy)),
			f2(r.Mean(eval.MetricAUC)),
			f2(r.Mean(eval.MetricLegitRecall)),
			f2(r.Mean(eval.MetricLegitPrecision)))
	}
	add("pharmacies only (paper §4.2)", base)
	add("+ inbound directories", rich)
	return t, nil
}

// Runner produces one table/figure by name.
type Runner struct {
	ID   string
	Desc string
	Run  func(*Env) (*Table, error)
}

// Runners lists every reproducible artifact in presentation order.
var Runners = []Runner{
	{"1", "Table 1 — dataset statistics", Table1},
	{"2", "Table 2 — abbreviations legend", Table2},
	{"3", "Table 3 — TF-IDF overall accuracy", Table3},
	{"4", "Table 4 — TF-IDF legitimate recall/precision", Table4},
	{"5", "Table 5 — TF-IDF illegitimate recall/precision", Table5},
	{"6", "Table 6 — TF-IDF AUC-ROC", Table6},
	{"7", "Table 7 — N-Gram-Graph accuracy", Table7},
	{"8", "Table 8 — N-Gram-Graph legitimate recall/precision", Table8},
	{"9", "Table 9 — N-Gram-Graph illegitimate recall/precision", Table9},
	{"10", "Table 10 — N-Gram-Graph AUC-ROC", Table10},
	{"11", "Table 11 — top-10 linked-to websites", Table11},
	{"12", "Table 12 — network accuracy/AUC", Table12},
	{"13", "Table 13 — network precision/recall", Table13},
	{"14", "Table 14 — ensemble classification", Table14},
	{"15", "Table 15 — ranking pairwise orderedness", Table15},
	{"16", "Table 16 — model over time, AUC", Table16},
	{"17", "Table 17 — model over time, legitimate precision", Table17},
	{"F1", "Figure 1 — two storefronts", Figure1},
	{"F2", "Figure 2 — N-gram-graph process trace", Figure2},
	{"F3", "Figure 3 — TrustRank propagation", func(*Env) (*Table, error) { return Figure3() }},
	{"A1", "Ablation — sampling × classifier", AblationA1},
	{"A2", "Ablation — ensemble vs combined features", AblationA2},
	{"A3", "Ablation — link-analysis variants", AblationA3},
	{"A4", "Analysis — ranking outliers (§6.4)", AblationA4},
	{"A5", "Ablation — random subsampling vs information gain", AblationA5},
	{"A6", "Ablation — inbound directory links (future work a)", AblationA6},
}

// FindRunner returns the runner with the given ID, or nil.
func FindRunner(id string) *Runner {
	for i := range Runners {
		if Runners[i].ID == id {
			return &Runners[i]
		}
	}
	return nil
}
