package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		ok     bool
		beyond int
	}{
		{n: 1000, p: 99, ok: true, beyond: 10},
		{n: 901, p: 99, ok: false, beyond: 9},
		{n: 500, p: 99, ok: false, beyond: 5},
		{n: 21, p: 50, ok: true, beyond: 10},
		{n: 5, p: 50, ok: false, beyond: 2},
	} {
		got := percentile(seq(tc.n), tc.p)
		if got.N != tc.n || got.OK != tc.ok || got.Beyond != tc.beyond {
			t.Errorf("p%v of %d samples: got %+v, want ok=%v beyond=%d", tc.p, tc.n, got, tc.ok, tc.beyond)
		}
	}
	if got := percentile(seq(1000), 50).Value; got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
	if got := percentile(make([]float64, 50), 99); got.OK {
		t.Errorf("p99 of 50 ties reported as supported: %+v", got)
	}
}

func TestBlockPercentileIgnoresASlowSpell(t *testing.T) {
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = float64(i % 1000) // every block holds 0..999
	}
	for i := 1000; i < 3000; i++ {
		xs[i] += 5000 // a slow spell over two of eight blocks
	}
	got := blockPercentile(xs, 8, 99)
	if got.N != 8000 || !got.OK || got.Beyond != 10 || got.Value != percentile(xs[:1000], 99).Value {
		t.Errorf("p99 over 8 blocks with a spell in 2: %+v", got)
	}
	if got := blockPercentile(xs[:1000], 2, 99); got.OK {
		t.Errorf("p99 of two 500-sample blocks reported as supported: %+v", got)
	}
	if got, want := blockPercentile(xs[:1000], 1, 50), percentile(xs[:1000], 50); got != want {
		t.Errorf("one block: %+v, want the plain percentile %+v", got, want)
	}
}

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(`# HELP pharmaverify_crawls_total On-demand domain crawls.
# TYPE pharmaverify_crawls_total counter
pharmaverify_crawls_total 10
pharmaverify_domains_total{outcome="crawled"} 7
pharmaverify_source_duration_seconds_bucket{source="text",le="+Inf"} 4
pharmaverify_source_duration_seconds_sum{source="text"} 0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(`pharmaverify_crawls_total 25

pharmaverify_domains_total{outcome="crawled"} 9
pharmaverify_domains_total{outcome="deduped"} 3
pharmaverify_source_duration_seconds_sum{source="text"} 1.25
pharmaverify_linkgraph_nodes 1.5e+06
`)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"pharmaverify_crawls_total":                                            15,
		`pharmaverify_domains_total{outcome="crawled"}`:                        2,
		`pharmaverify_domains_total{outcome="deduped"}`:                        3, // absent before: counts from 0
		`pharmaverify_source_duration_seconds_sum{source="text"}`:              0.75,
		`pharmaverify_source_duration_seconds_bucket{source="text",le="+Inf"}`: -4,
		"pharmaverify_linkgraph_nodes":                                         1.5e6,
	} {
		if got := delta(before, after, series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}
	for _, bad := range []string{"pharmaverify_crawls_total", "x{a=\"b\"} one"} {
		if _, err := parseExposition(bad); err == nil {
			t.Errorf("parseExposition(%q) accepted a line without a numeric value", bad)
		}
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkNames(endToEnd); err != nil {
		t.Error(err)
	}
	if err := checkNames(perLayer); err != nil {
		t.Error(err)
	}
	for _, bad := range [][]string{{"p99 ms"}, {"_p50"}, {"trust/refresh"}, {"a", "a"}, {""},
		{"x123456789012345678901234567890123456789012345678901234567890abcd"}} {
		if checkNames(bad) == nil {
			t.Errorf("checkNames(%q) accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's workloads and
// metrics (names and units) to what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if want := []string{"cold-stream", "hot-zipf", "rank-study"}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}
	for _, c := range []struct {
		got  []m
		want []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, name := range c.want {
			if c.got[i].Name != name || c.got[i].Unit != unitOf(name) {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.got[i].Name, c.got[i].Unit, name, unitOf(name))
			}
		}
	}
}

func TestSeedReproducesDomainsAndSchedule(t *testing.T) {
	world := make([]string, 3000)
	for i := range world {
		world[i] = "pharmacy" + string(rune('a'+i%26)) + time.Duration(i).String()
	}
	for name, spec := range servingSpecs {
		a, err := makePlan(spec, domainOrder(world, 7), 7, 10, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(spec, domainOrder(world, 7), 7, 10, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", name)
		}
		c, err := makePlan(spec, domainOrder(world, 8), 8, 10, false)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Steps, c.Steps) || reflect.DeepEqual(a.Closed, c.Closed) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
		singles, batches := 0, 0
		for _, r := range a.Closed {
			if len(r.Domains) == 1 {
				singles++
			} else {
				batches++
			}
		}
		if singles != spec.Latency || batches != spec.Batches || len(a.Closed[len(a.Closed)-1].Domains) != 1 {
			t.Errorf("%s: latency phase has %d singles and %d batches, the last not a single; want %d and %d spread among them",
				name, singles, batches, spec.Latency, spec.Batches)
		}
		for i, step := range a.Steps {
			if want := int(spec.Ladder[i].Rate*spec.Ladder[i].Share*10 + 0.5); len(step) != want {
				t.Errorf("%s rung %d: %d requests, want %d", name, i, len(step), want)
			}
			for j := 1; j < len(step); j++ {
				if step[j].Due <= step[j-1].Due {
					t.Fatalf("%s rung %d: send schedule not increasing at %d", name, i, j)
				}
			}
		}
	}
	cold, err := makePlan(servingSpecs["cold-stream"], world, 1, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, step := range append(cold.Steps, cold.Closed) {
		for _, r := range step {
			for _, d := range r.Domains {
				if seen[d] {
					t.Fatalf("cold-stream plan sends %s twice", d)
				}
				seen[d] = true
			}
		}
	}
}

func TestStepAccounting(t *testing.T) {
	ok := func(taken, sent, done time.Duration) outcome {
		return outcome{Taken: taken, Sent: sent, Done: done, Status: http.StatusOK,
			Results: []verdict{{Domain: "d"}}}
	}
	ms := time.Millisecond
	reqs := make([]request, 200)
	for i := range reqs {
		reqs[i] = request{Due: time.Duration(i) * 10 * ms, Domains: []string{"d"}}
	}
	out := make([]outcome, len(reqs))
	for i, r := range reqs {
		out[i] = ok(r.Due, r.Due, r.Due+5*ms)
	}
	st := summarize(100, 2, reqs, out, 50*ms)
	if st.Failed != 0 || st.OverLimit != 0 || !st.Meets || !st.GeneratorOK || st.BacklogMax != 0 {
		t.Fatalf("healthy step: %+v", st)
	}

	// One refusal, one per-domain error and one late answer: all three
	// miss the limit; the two failures also count as failed.
	out[10].Status = http.StatusTooManyRequests
	out[11].Results = []verdict{{Domain: "d", Error: "no pages"}}
	out[12].Done = reqs[12].Due + 80*ms
	st = summarize(100, 2, reqs, out, 50*ms)
	if st.Attempted != 200 || st.Succeeded != 198 || st.Failed != 2 || st.OverLimit != 3 || st.Meets {
		t.Fatalf("step with failures: %+v", st)
	}

	// A stalled server: from request 150 on, senders pick work up late.
	out = make([]outcome, len(reqs))
	for i, r := range reqs {
		taken := r.Due
		if i >= 150 {
			taken = reqs[150].Due + time.Duration(i-150)*30*ms
		}
		out[i] = ok(taken, taken, taken+5*ms)
	}
	st = summarize(100, 2, reqs, out, 50*ms)
	if st.BacklogEnd == 0 || st.BacklogMax == 0 || st.Meets {
		t.Fatalf("stalled step: %+v", st)
	}

	// A generator that sends 40 ms after the due time with idle senders
	// is itself behind: the step is invalid.
	for i, r := range reqs {
		out[i] = ok(r.Due, r.Due+40*ms, r.Due+45*ms)
	}
	if st = summarize(100, 2, reqs, out, 50*ms); st.GeneratorOK || st.Meets {
		t.Fatalf("lagging generator: %+v", st)
	}
}
