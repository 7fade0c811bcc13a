package bench

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

func smallEnv(t testing.TB) *Env {
	t.Helper()
	e, err := NewEnvCtx(context.Background(), SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvCached(t *testing.T) {
	a := smallEnv(t)
	b := smallEnv(t)
	if a != b {
		t.Error("NewEnvCtx must cache by scale")
	}
}

func TestTable1Shape(t *testing.T) {
	e := smallEnv(t)
	tab, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[1][1], strconv.Itoa(SmallScale.Legit1)) {
		t.Errorf("legit count missing: %v", tab.Rows[1])
	}
	if !strings.Contains(tab.Notes[0], "intersection between datasets: 0") {
		t.Errorf("disjointness violated: %v", tab.Notes)
	}
}

func TestEveryRunnerProducesATable(t *testing.T) {
	if testing.Short() {
		t.Skip("full runner sweep is slow")
	}
	e := smallEnv(t)
	for _, r := range Runners {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run(e)
			if err != nil {
				t.Fatalf("runner %s: %v", r.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("runner %s produced no rows", r.ID)
			}
			var buf bytes.Buffer
			if _, err := tab.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tab.ID) {
				t.Error("rendered table missing its ID")
			}
		})
	}
}

func TestFindRunner(t *testing.T) {
	if FindRunner("11") == nil || FindRunner("F2") == nil || FindRunner("A1") == nil {
		t.Error("known runner not found")
	}
	if FindRunner("nope") != nil {
		t.Error("unknown runner found")
	}
}

func TestTable11ContainsSignatureEndpoints(t *testing.T) {
	e := smallEnv(t)
	tab, err := Table11(e)
	if err != nil {
		t.Fatal(err)
	}
	var legitCol, illegitCol []string
	for _, row := range tab.Rows {
		legitCol = append(legitCol, row[1])
		illegitCol = append(illegitCol, row[2])
	}
	joinL := strings.Join(legitCol, " ")
	joinI := strings.Join(illegitCol, " ")
	for _, ep := range []string{"facebook.com", "twitter.com", "fda.gov"} {
		if !strings.Contains(joinL, ep) {
			t.Errorf("legit top-10 missing %s: %v", ep, legitCol)
		}
	}
	for _, ep := range []string{"wikipedia.org", "wordpress.org"} {
		if !strings.Contains(joinI, ep) {
			t.Errorf("illegit top-10 missing %s: %v", ep, illegitCol)
		}
	}
}

func TestFigure3Standalone(t *testing.T) {
	tab, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Good nodes must end with more trust than bad ones.
	score := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("unparsable score %q", r[3])
		}
		score[r[0]] = v
	}
	if score["g3"] <= score["b2"] {
		t.Errorf("g3=%v should exceed b2=%v", score["g3"], score["b2"])
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := &Table{
		ID:     "Table Y",
		Title:  "md demo",
		Header: []string{"col", "val|ue"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", "1")
	tab.AddRow("y") // short row padded
	var buf bytes.Buffer
	if _, err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"### Table Y — md demo",
		"| col | val\\|ue |",
		"|---|---|",
		"| x | 1 |",
		"| y |   |",
		"*a note*",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "Table X",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Notes:  []string{"hello"},
	}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table X — demo", "a  bbbb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
