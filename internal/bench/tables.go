package bench

import (
	"context"
	"fmt"

	"pharmaverify/internal/core"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/parallel"
	"pharmaverify/internal/trust"
)

// tfidfRows lists the classifier/sampling combinations the paper
// reports for the TF-IDF representation (best sampling per classifier).
var tfidfRows = []struct {
	Clf core.ClassifierKind
	Smp core.SamplingKind
}{
	{core.NBM, core.NoSampling},
	{core.SVM, core.NoSampling},
	{core.J48, core.SMOTE},
}

// nggRows lists the classifiers of the N-Gram-Graph tables (no
// sampling, per the paper).
var nggRows = []core.ClassifierKind{core.NB, core.SVM, core.J48, core.MLP}

// Table1 reproduces the dataset statistics.
func Table1(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Datasets",
		Header: []string{"", "Dataset 1 (Date 1)", "Dataset 2 (Date 2, 6 months later)"},
	}
	l1, i1 := e.Snap1.Counts()
	l2, i2 := e.Snap2.Counts()
	t.AddRow("# Examples", fmt.Sprintf("%d (100%%)", l1+i1), fmt.Sprintf("%d (100%%)", l2+i2))
	t.AddRow("# Legitimate Examples",
		fmt.Sprintf("%d (%d%%)", l1, percent(l1, l1+i1)),
		fmt.Sprintf("%d (%d%%)", l2, percent(l2, l2+i2)))
	t.AddRow("# Illegitimate Examples",
		fmt.Sprintf("%d (%d%%)", i1, percent(i1, l1+i1)),
		fmt.Sprintf("%d (%d%%)", i2, percent(i2, l2+i2)))

	// The paper's disjointness property.
	shared := 0
	ill1 := e.Snap1.IllegitDomainSet()
	for d := range e.Snap2.IllegitDomainSet() {
		if ill1[d] {
			shared++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("illegitimate-domain intersection between datasets: %d (paper: empty)", shared))
	return t, nil
}

func percent(a, b int) int {
	if b == 0 {
		return 0
	}
	return int(float64(a)/float64(b)*100 + 0.5)
}

// Table2 reproduces the abbreviations legend. Every entry corresponds
// to an implementation in this repository.
func Table2(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 2",
		Title:  "Abbreviations",
		Header: []string{"Abbreviation", "Description", "Implementation"},
	}
	t.AddRow("NBM", "Naïve Bayesian Multinomial", "internal/ml/bayes.Multinomial")
	t.AddRow("NB", "Naïve Bayesian", "internal/ml/bayes.Gaussian")
	t.AddRow("SVM", "Support Vector Machines", "internal/ml/svm.Linear")
	t.AddRow("J48", "Java implementation of C4.5 algorithm", "internal/ml/tree.C45")
	t.AddRow("MLP", "Multilayer perceptron (Artificial Neural Networks)", "internal/ml/mlp.Network")
	t.AddRow("NO", "No sampling technique used", "nil eval.Sampler")
	t.AddRow("SUB", "Subsampling", "internal/ml/sampling.Undersample")
	t.AddRow("SMOTE", "Oversampling with SMOTE algorithm", "internal/ml/sampling.SMOTE")
	return t, nil
}

// textRow is one (classifier, sampling) row of a sweep table.
type textRow = struct {
	Clf core.ClassifierKind
	Smp core.SamplingKind
}

// prewarmText evaluates every (classifier, sampling) × term-size cell
// of a sweep concurrently. Cells are independent given the shared
// snapshot, and the Env memo deduplicates them (singleflight), so the
// sequential table fill afterwards is pure cache hits and the rendered
// rows are identical to a sequential sweep.
func (e *Env) prewarmText(rep core.Representation, rows []textRow, sizes []int) error {
	type cell struct {
		row textRow
		k   int
	}
	cells := make([]cell, 0, len(rows)*len(sizes))
	for _, r := range rows {
		for _, k := range sizes {
			cells = append(cells, cell{row: r, k: k})
		}
	}
	_, err := parallel.MapErrCtx(context.Background(), len(cells), 0, func(i int) (struct{}, error) {
		_, err := e.TextResult(rep, cells[i].row.Clf, cells[i].row.Smp, cells[i].k)
		return struct{}{}, err
	})
	return err
}

// textSweep fills one metric across classifiers × term sizes.
func (e *Env) textSweep(t *Table, rep core.Representation, rows []textRow, metric eval.Metric) error {
	if err := e.prewarmText(rep, rows, e.Scale.TermSizes); err != nil {
		return err
	}
	for _, r := range rows {
		cells := []string{string(r.Clf), string(r.Smp)}
		for _, k := range e.Scale.TermSizes {
			res, err := e.TextResult(rep, r.Clf, r.Smp, k)
			if err != nil {
				return err
			}
			cells = append(cells, f2(res.Mean(metric)))
		}
		t.AddRow(cells...)
	}
	return nil
}

func (e *Env) termHeader(prefix ...string) []string {
	h := append([]string{}, prefix...)
	for _, k := range e.Scale.TermSizes {
		h = append(h, sizeLabel(k))
	}
	return h
}

// Table3 reproduces TF-IDF overall accuracy.
func Table3(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 3",
		Title:  "TF-IDF — Overall Accuracy (3-fold CV, Dataset 1)",
		Header: e.termHeader("clf", "smp"),
		Notes:  []string{"paper shape: all ≥ 0.88; SVM best (≈0.99); J48 weakest on small term subsets"},
	}
	return t, e.textSweep(t, core.TFIDF, tfidfRows, eval.MetricAccuracy)
}

// prTable builds a recall+precision table for one class.
func (e *Env) prTable(id, title string, rep core.Representation, rows []textRow, recall, precision eval.Metric, notes ...string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: e.termHeader("metric", "clf", "smp"),
		Notes:  notes,
	}
	if err := e.prewarmText(rep, rows, e.Scale.TermSizes); err != nil {
		return nil, err
	}
	for _, r := range rows {
		cells := []string{"Recall", string(r.Clf), string(r.Smp)}
		for _, k := range e.Scale.TermSizes {
			res, err := e.TextResult(rep, r.Clf, r.Smp, k)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f2(res.Mean(recall)))
		}
		t.AddRow(cells...)
	}
	for _, r := range rows {
		cells := []string{"Precision", string(r.Clf), string(r.Smp)}
		for _, k := range e.Scale.TermSizes {
			res, err := e.TextResult(rep, r.Clf, r.Smp, k)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f2(res.Mean(precision)))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Table4 reproduces TF-IDF legitimate recall and precision.
func Table4(e *Env) (*Table, error) {
	return e.prTable("Table 4", "TF-IDF — legitimate recall and precision",
		core.TFIDF, tfidfRows, eval.MetricLegitRecall, eval.MetricLegitPrecision,
		"paper shape: SVM best precision; J48 low recall on small subsets")
}

// Table5 reproduces TF-IDF illegitimate recall and precision.
func Table5(e *Env) (*Table, error) {
	return e.prTable("Table 5", "TF-IDF — illegitimate recall and precision",
		core.TFIDF, tfidfRows, eval.MetricIllegitRecall, eval.MetricIllegitPrecision,
		"paper shape: all precision ≥ 0.93 (class imbalance); SVM best recall")
}

// Table6 reproduces TF-IDF AUC-ROC.
func Table6(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 6",
		Title:  "TF-IDF — Area Under ROC Curve",
		Header: e.termHeader("clf", "smp"),
		Notes:  []string{"paper shape: NBM wins all sizes (≈0.99); J48 clearly last"},
	}
	return t, e.textSweep(t, core.TFIDF, tfidfRows, eval.MetricAUC)
}

func nggRowSpecs() []textRow {
	rows := make([]textRow, len(nggRows))
	for i, c := range nggRows {
		rows[i].Clf = c
		rows[i].Smp = core.NoSampling
	}
	return rows
}

// Table7 reproduces N-Gram-Graph classifier accuracy.
func Table7(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 7",
		Title:  "N-Gram Graphs — Classifier Accuracy",
		Header: e.termHeader("clf", "smp"),
		Notes:  []string{"paper shape: MLP best (≈0.99); J48 second"},
	}
	return t, e.textSweep(t, core.NGramGraphs, nggRowSpecs(), eval.MetricAccuracy)
}

// Table8 reproduces N-Gram-Graph legitimate recall/precision.
func Table8(e *Env) (*Table, error) {
	return e.prTable("Table 8", "N-Gram Graphs — legitimate recall and precision",
		core.NGramGraphs, nggRowSpecs(), eval.MetricLegitRecall, eval.MetricLegitPrecision,
		"paper shape: MLP best recall; SVM best precision")
}

// Table9 reproduces N-Gram-Graph illegitimate recall/precision.
func Table9(e *Env) (*Table, error) {
	return e.prTable("Table 9", "N-Gram Graphs — illegitimate recall and precision",
		core.NGramGraphs, nggRowSpecs(), eval.MetricIllegitRecall, eval.MetricIllegitPrecision,
		"paper shape: uniformly high (≥0.92)")
}

// Table10 reproduces N-Gram-Graph AUC-ROC.
func Table10(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 10",
		Title:  "N-Gram Graphs — Area Under ROC Curve",
		Header: e.termHeader("clf", "smp"),
		Notes:  []string{"paper shape: MLP ≈0.99 everywhere; SVM weakest"},
	}
	return t, e.textSweep(t, core.NGramGraphs, nggRowSpecs(), eval.MetricAUC)
}

// Table11 reproduces the ten most linked-to websites per class.
func Table11(e *Env) (*Table, error) {
	legitOut := map[string][]string{}
	illegitOut := map[string][]string{}
	for _, p := range e.Snap1.Pharmacies {
		if p.Label == ml.Legitimate {
			legitOut[p.Domain] = p.Outbound
		} else {
			illegitOut[p.Domain] = p.Outbound
		}
	}
	topLegit := trust.TopLinked(legitOut, 10)
	topIllegit := trust.TopLinked(illegitOut, 10)

	t := &Table{
		ID:     "Table 11",
		Title:  "Websites pointed to by legitimate and illegitimate pharmacies (top 10)",
		Header: []string{"#", "pointed by legitimate", "pointed by illegitimate"},
		Notes: []string{
			"paper: legit list led by facebook/twitter/fda.gov; illegit by wikipedia/wordpress, incl. pharmacy endpoints (rxwinners.com)",
		},
	}
	for i := 0; i < 10; i++ {
		l, r := "", ""
		if i < len(topLegit) {
			l = topLegit[i]
		}
		if i < len(topIllegit) {
			r = topIllegit[i]
		}
		t.AddRow(fmt.Sprintf("%d", i+1), l, r)
	}
	return t, nil
}

// Table12 reproduces the network classifier's accuracy and AUC.
func Table12(e *Env) (*Table, error) {
	res, err := e.NetworkResult(core.TrustRankUndirected)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 12",
		Title:  "Network — Overall Accuracy and AUC ROC (TrustRank scores → NB)",
		Header: []string{"Classifier", "Overall Accuracy", "AUC ROC"},
		Notes:  []string{"paper: 0.96 accuracy, 0.95 AUC — close to text accuracy, clearly worse AUC"},
	}
	t.AddRow("NB", f2(res.Mean(eval.MetricAccuracy)), f2(res.Mean(eval.MetricAUC)))
	return t, nil
}

// Table13 reproduces the network classifier's per-class precision and
// recall.
func Table13(e *Env) (*Table, error) {
	res, err := e.NetworkResult(core.TrustRankUndirected)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table 13",
		Title: "Network — precision and recall",
		Header: []string{"Classifier", "legit precision", "legit recall",
			"illegit precision", "illegit recall"},
		Notes: []string{"paper: legit recall ≈0.73 (isolated legitimate pharmacies receive no trust)"},
	}
	t.AddRow("NB",
		f3(res.Mean(eval.MetricLegitPrecision)),
		f3(res.Mean(eval.MetricLegitRecall)),
		f3(res.Mean(eval.MetricIllegitPrecision)),
		f3(res.Mean(eval.MetricIllegitRecall)))
	return t, nil
}

// Table14 reproduces the ensemble-selection comparison.
func Table14(e *Env) (*Table, error) {
	terms := 1000
	if !containsInt(e.Scale.TermSizes, 1000) {
		terms = e.Scale.TermSizes[len(e.Scale.TermSizes)-1]
		if terms == 0 && len(e.Scale.TermSizes) > 1 {
			terms = e.Scale.TermSizes[len(e.Scale.TermSizes)-2]
		}
	}
	ens, err := core.EnsembleCVCtx(context.Background(), e.Snap1, core.EnsembleConfig{Terms: terms, Seed: e.Scale.Seed})
	if err != nil {
		return nil, err
	}
	text, err := e.TextResult(core.NGramGraphs, core.MLP, core.NoSampling, terms)
	if err != nil {
		return nil, err
	}
	net, err := e.NetworkResult(core.TrustRankUndirected)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Table 14",
		Title: fmt.Sprintf("Ensemble Classification Results (%d-term subsamples)", terms),
		Header: []string{"model", "Acc.", "legit Rec.", "legit Prec.",
			"illegit Rec.", "illegit Prec.", "AUC ROC"},
		Notes: []string{"paper shape: ensemble ≥ best single text and network models on AUC"},
	}
	addRes := func(name string, r eval.CVResult) {
		t.AddRow(name,
			f2(r.Mean(eval.MetricAccuracy)),
			f2(r.Mean(eval.MetricLegitRecall)),
			f2(r.Mean(eval.MetricLegitPrecision)),
			f2(r.Mean(eval.MetricIllegitRecall)),
			f2(r.Mean(eval.MetricIllegitPrecision)),
			f2(r.Mean(eval.MetricAUC)))
	}
	addRes("Ensem. Sel.", ens)
	addRes("Neural (Text)", text)
	addRes("NB (Network)", net)
	return t, nil
}

// Table15 reproduces the ranking pairwise-orderedness results.
func Table15(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Table 15",
		Title:  "Ranking (rank = textRank + networkRank) — pairwise orderedness",
		Header: []string{"text model", "smp", "pairord"},
		Notes:  []string{"paper: all ≥ 0.994, SVM best at 0.999"},
	}
	terms := pickTerms(e, 1000)
	cases := []struct {
		rep core.Representation
		clf core.ClassifierKind
		smp core.SamplingKind
	}{
		{core.TFIDF, core.NBM, core.NoSampling},
		{core.TFIDF, core.SVM, core.NoSampling},
		{core.TFIDF, core.J48, core.SMOTE},
		{core.NGramGraphs, "", core.NoSampling},
	}
	for _, c := range cases {
		res, err := core.RankCV(e.Snap1, core.RankConfig{
			Representation: c.rep, Classifier: c.clf, Sampling: c.smp,
			Terms: terms, Seed: e.Scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		name := string(c.clf)
		if c.rep == core.NGramGraphs {
			name = "N-Gram Graph"
		} else {
			name = "TF-IDF " + name
		}
		t.AddRow(name, string(c.smp), f3(res.PairwiseOrderedness))
	}
	return t, nil
}

// driftSpecs lists the classifier rows of Tables 16/17.
var driftSpecs = []textRow{
	{core.NBM, core.NoSampling},
	{core.SVM, core.NoSampling},
	{core.J48, core.SMOTE},
}

func driftSizes(e *Env) []int {
	out := []int{}
	for _, k := range []int{250, 1000} {
		if containsInt(e.Scale.TermSizes, k) {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{e.Scale.TermSizes[0]}
	}
	return out
}

// driftTable renders Table 16 (AUC) or Table 17 (legit precision).
func driftTable(e *Env, id, title string, pick func(core.DriftResult, core.DriftCell) float64, notes ...string) (*Table, error) {
	sizes := driftSizes(e)
	header := []string{"clf", "smp"}
	for _, cell := range []core.DriftCell{core.OldOld, core.NewNew, core.OldNew} {
		for _, k := range sizes {
			header = append(header, fmt.Sprintf("%s/%s", cell, sizeLabel(k)))
		}
	}
	t := &Table{ID: id, Title: title, Header: header, Notes: notes}

	// Every (classifier, term-size) drift study is independent, so the
	// grid fans out; rows render sequentially from the ordered results.
	type job struct {
		spec textRow
		k    int
	}
	jobs := make([]job, 0, len(driftSpecs)*len(sizes))
	for _, spec := range driftSpecs {
		for _, k := range sizes {
			jobs = append(jobs, job{spec: spec, k: k})
		}
	}
	res, err := parallel.MapErrCtx(context.Background(), len(jobs), 0, func(i int) (core.DriftResult, error) {
		j := jobs[i]
		return core.DriftStudy(e.Snap1, e.Snap2, core.TextConfig{
			Classifier: j.spec.Clf, Sampling: j.spec.Smp, Terms: j.k, Seed: e.Scale.Seed,
		})
	})
	if err != nil {
		return nil, err
	}

	for s, spec := range driftSpecs {
		cells := []string{string(spec.Clf), string(spec.Smp)}
		results := map[int]core.DriftResult{}
		for j, k := range sizes {
			results[k] = res[s*len(sizes)+j]
		}
		for _, cell := range []core.DriftCell{core.OldOld, core.NewNew, core.OldNew} {
			for _, k := range sizes {
				cells = append(cells, f2(pick(results[k], cell)))
			}
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Table16 reproduces the model-over-time AUC comparison.
func Table16(e *Env) (*Table, error) {
	return driftTable(e, "Table 16", "TF-IDF — Model over Time — Area Under ROC Curve",
		func(r core.DriftResult, c core.DriftCell) float64 { return r.AUC[c] },
		"paper shape: AUC nearly unchanged from Old-Old to Old-New")
}

// Table17 reproduces the model-over-time legitimate-precision
// comparison.
func Table17(e *Env) (*Table, error) {
	return driftTable(e, "Table 17", "TF-IDF — Model over Time — legitimate Precision",
		func(r core.DriftResult, c core.DriftCell) float64 { return r.LegitPrecision[c] },
		"paper shape: visible precision drop in the Old-New column (stale models)")
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func pickTerms(e *Env, preferred int) int {
	if containsInt(e.Scale.TermSizes, preferred) {
		return preferred
	}
	return e.Scale.TermSizes[len(e.Scale.TermSizes)-1]
}
