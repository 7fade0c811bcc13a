// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the same experiment code as
// `cmd/experiments` (internal/bench runners) on a fresh result cache,
// so reported times reflect real end-to-end experiment cost at the
// benchmark scale.
//
// By default benchmarks run at bench.SmallScale; set
// PHARMAVERIFY_SCALE=full to reproduce the paper's exact dataset sizes
// (167+1292 / 167+1275), which takes substantially longer.
package pharmaverify

import (
	"context"
	"io"
	"os"
	"testing"

	"pharmaverify/internal/bench"
)

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	scale := bench.SmallScale
	if os.Getenv("PHARMAVERIFY_SCALE") == "full" {
		scale = bench.FullScale
	}
	e, err := bench.NewEnvCtx(context.Background(), scale)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func runTable(b *testing.B, id string) {
	b.Helper()
	e := benchEnv(b)
	r := bench.FindRunner(id)
	if r == nil {
		b.Fatalf("no runner %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(e.Fresh())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tab.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Dataset statistics (Table 1).
func BenchmarkTable01Datasets(b *testing.B)      { runTable(b, "1") }
func BenchmarkTable02Abbreviations(b *testing.B) { runTable(b, "2") }

// TF-IDF text classification sweep (Tables 3–6).
func BenchmarkTable03TFIDFAccuracy(b *testing.B) { runTable(b, "3") }
func BenchmarkTable04LegitPR(b *testing.B)       { runTable(b, "4") }
func BenchmarkTable05IllegitPR(b *testing.B)     { runTable(b, "5") }
func BenchmarkTable06AUC(b *testing.B)           { runTable(b, "6") }

// N-Gram-Graph text classification sweep (Tables 7–10).
func BenchmarkTable07NGGAccuracy(b *testing.B)  { runTable(b, "7") }
func BenchmarkTable08NGGLegitPR(b *testing.B)   { runTable(b, "8") }
func BenchmarkTable09NGGIllegitPR(b *testing.B) { runTable(b, "9") }
func BenchmarkTable10NGGAUC(b *testing.B)       { runTable(b, "10") }

// Network analysis (Tables 11–13).
func BenchmarkTable11TopLinked(b *testing.B)  { runTable(b, "11") }
func BenchmarkTable12NetworkAcc(b *testing.B) { runTable(b, "12") }
func BenchmarkTable13NetworkPR(b *testing.B)  { runTable(b, "13") }

// Ensemble selection (Table 14) and ranking (Table 15).
func BenchmarkTable14Ensemble(b *testing.B) { runTable(b, "14") }
func BenchmarkTable15Ranking(b *testing.B)  { runTable(b, "15") }

// Model evolution over time (Tables 16–17).
func BenchmarkTable16DriftAUC(b *testing.B)       { runTable(b, "16") }
func BenchmarkTable17DriftPrecision(b *testing.B) { runTable(b, "17") }

// Figures.
func BenchmarkFigure1Storefronts(b *testing.B) { runTable(b, "F1") }
func BenchmarkFigure2NGGProcess(b *testing.B)  { runTable(b, "F2") }
func BenchmarkFigure3TrustRank(b *testing.B)   { runTable(b, "F3") }

// Ablations called out in DESIGN.md.
func BenchmarkAblationSampling(b *testing.B)      { runTable(b, "A1") }
func BenchmarkAblationCombined(b *testing.B)      { runTable(b, "A2") }
func BenchmarkAblationTrustVariants(b *testing.B) { runTable(b, "A3") }
func BenchmarkAnalysisOutliers(b *testing.B)      { runTable(b, "A4") }
func BenchmarkAblationFeatureSelect(b *testing.B) { runTable(b, "A5") }
func BenchmarkAblationInboundLinks(b *testing.B)  { runTable(b, "A6") }
