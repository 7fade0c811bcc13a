package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"pharmaverify/internal/core"
	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/eval"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/serve"
	"pharmaverify/internal/textproc"
	"pharmaverify/internal/webgen"
)

// rung is one step of a workload's fixed rate ladder: an offered rate
// held for a share of the timed phase.
type rung struct {
	Rate  float64
	Share float64
}

// servingSpec fixes one serving workload.
type servingSpec struct {
	// Limit is the latency limit a request must meet; at most 1% of a
	// rung's requests may miss it for the rung to count towards slo_rps.
	Limit time.Duration
	// Latency is how many single-domain requests the closed-loop
	// latency phase sends; their latencies are reported as p50_ms and
	// p99_ms.
	Latency int
	Ladder  []rung
	// Ref is the index of the rung whose rate a traced run holds.
	Ref int
	// Hot selects the hot-zipf traffic: Zipf-skewed repeat domains over
	// a cache warmed during set-up, some requests forcing a refresh.
	Hot bool
	// Batches is how many 64-domain ranked batches, spread evenly over
	// the latency phase, time study_s.
	Batches int
	// Passes is how many fresh set-ups serve the latency phase, each the
	// same requests; a request counts with its fastest answer.
	Passes int
	// Blocks is how many consecutive blocks the latency phase's
	// single-domain latencies are cut into; p50_ms and p99_ms are the
	// medians of the blocks' percentiles.
	Blocks int
}

const (
	// batchSize is the daemon's default MaxBatch: an analyst's whole
	// list in one ranked request.
	batchSize = 64
	// hotPool is how many of the most popular domains hot-zipf's ranked
	// batches sample from: all stay cached, and each batch mixes another
	// 64 of them, so study_s does not rest on one seed's top 64.
	hotPool = 256
	// zipfS is the skew of hot-zipf's domain popularity.
	zipfS = 1.1
	// refreshShare is the share of hot-zipf requests sent with
	// "refresh":true (a forced re-crawl and cache write).
	refreshShare = 0.01
	// setupRounds is how many times a run builds its set-up; setup_s is
	// the median.
	setupRounds = 3
	// textProbSample is how many served cold-stream domains are
	// re-assessed offline for the textProb equality check.
	textProbSample = 32
)

// The rungs of each ladder sit well clear of the server's capacity on
// either side (about 60/s cold and 12000/s hot on the 2-CPU host), so
// slo_rps does not flip between runs on a shared host.
var servingSpecs = map[string]servingSpec{
	"cold-stream": {
		Limit:   250 * time.Millisecond,
		Latency: 1000,
		Ladder:  []rung{{Rate: 10, Share: 0.05}, {Rate: 20, Share: 0.2}, {Rate: 100, Share: 0.025}},
		Ref:     1,
		Batches: 4,
		Passes:  2,
		Blocks:  1,
	},
	"hot-zipf": {
		Limit:   25 * time.Millisecond,
		Latency: 12288,
		Ladder:  []rung{{Rate: 1000, Share: 0.1}, {Rate: 2000, Share: 0.15}, {Rate: 40000, Share: 0.01}},
		Ref:     0,
		Hot:     true,
		Batches: 100,
		Passes:  2,
		Blocks:  8,
	},
}

// servingCrawl is the daemon's default per-request crawl budget, which
// the offline textProb check must reproduce.
var servingCrawl = crawler.Config{
	MaxPages:      50,
	AttemptBudget: 150,
	Retry:         crawler.RetryConfig{MaxAttempts: 2},
	FetchTimeout:  5 * time.Second,
	FailureBudget: 20,
}

// servingEnv is one set-up: the model trained on a Dataset-1-shaped
// world, the server over a Dataset-2-shaped world, its loopback
// listener and the load generator.
type servingEnv struct {
	world  *webgen.World
	labels map[string]int
	model  *core.Verifier
	srv    *serve.Server
	hs     *http.Server
	served chan error
	lg     *loadgen
	base   string
	// order is the seeded domain order: the never-seen sequence of
	// cold-stream, the popularity ranking of hot-zipf.
	order []string
	// warm holds the textProb of hot-zipf's warm-pass verdict of every
	// domain.
	warm map[string]float64
}

func setupServing(ctx context.Context, spec servingSpec, o options, tr *tracer) (*servingEnv, error) {
	w1 := webgen.Generate(webgen.Dataset1Config(o.Seed))
	snap, err := dataset.BuildCtx(ctx, "train", w1, w1.Domains(), w1.Labels(), dataset.BuildOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, fmt.Errorf("training crawl: %w", err)
	}
	model, err := core.Train(snap, core.Options{Classifier: core.NBM, Seed: o.Seed})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	w2 := webgen.Generate(webgen.Dataset2Config(o.Seed))
	var f crawler.Fetcher = w2
	if tr != nil {
		f = fetcher{inner: w2, t: tr}
	}
	// Daemon defaults except Fetcher and Workers; the daemon's
	// -graph-refresh-interval default is the one field whose zero value
	// means something else.
	srv, err := serve.New(model, serve.Config{Fetcher: f, Workers: runtime.NumCPU(), GraphRefreshInterval: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	e := &servingEnv{
		world:  w2,
		labels: w2.Labels(),
		model:  model,
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.lg = newLoadgen(e.base, runtime.NumCPU(), tr)
	e.order = domainOrder(w2.Domains(), o.Seed)
	return e, nil
}

// domainOrder returns the world's domains in the seeded order a run
// visits them.
func domainOrder(domains []string, seed int64) []string {
	out := append([]string(nil), domains...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmUp verifies every domain once in ranked batches, least popular
// first, so the cache ends up holding the most popular domains.
func (e *servingEnv) warmUp(ctx context.Context) error {
	var reqs []request
	for hi := len(e.order); hi > 0; hi -= batchSize {
		reqs = append(reqs, request{Domains: e.order[max(hi-batchSize, 0):hi]})
	}
	e.warm = make(map[string]float64, len(e.order))
	for i, o := range e.lg.run(ctx, reqs) {
		if o.failed(len(reqs[i].Domains)) {
			return fmt.Errorf("warm pass: batch %d failed: status %d %s", i, o.Status, o.Err)
		}
		for _, v := range o.Results {
			e.warm[v.Domain] = v.TextProb
		}
	}
	if len(e.warm) != len(e.order) {
		return fmt.Errorf("warm pass verified %d of %d domains", len(e.warm), len(e.order))
	}
	return nil
}

func (e *servingEnv) close() {
	e.lg.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every request has completed by now, so Shutdown only closes idle
	// connections; Serve then returns http.ErrServerClosed.
	_ = e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Close()
}

func (e *servingEnv) scrape(ctx context.Context) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseExposition(string(b))
}

// plan is a serving run's whole input, fixed by the seed before any
// request is sent.
type plan struct {
	// Closed is the closed-loop latency phase: the single-domain
	// requests with the ranked batches spread evenly among them.
	Closed []request
	// Steps are the open-loop rungs of the rate ladder.
	Steps [][]request
	Rates []float64
	Secs  []float64
}

// traceBlock is the length of the alternating untraced and traced
// blocks of a traced run's requests.
const traceBlock = time.Second

// makePlan builds the latency phase, the ranked batches and the rate
// steps, drawing their domains in that order. A traced run has one step,
// the rate of the spec's Ref rung for the whole time, whose requests
// alternate between untraced and traced blocks so both see the same
// server state.
func makePlan(spec servingSpec, order []string, seed int64, seconds int, traced bool) (plan, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var zipf *rand.Zipf
	if spec.Hot {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(order)-1))
	}
	next := 0
	pick := func() (string, bool, error) {
		if spec.Hot {
			return order[zipf.Uint64()], rng.Float64() < refreshShare, nil
		}
		if next >= len(order) {
			return "", false, errors.New("the world has too few never-seen domains for this plan")
		}
		next++
		return order[next-1], false, nil
	}
	var p plan
	if !traced {
		var singles, batches []request
		for i := 0; i < spec.Latency; i++ {
			dom, refresh, err := pick()
			if err != nil {
				return plan{}, err
			}
			singles = append(singles, request{Domains: []string{dom}, Refresh: refresh})
		}
		for b := 0; b < spec.Batches; b++ {
			var doms []string
			if spec.Hot {
				for _, i := range rng.Perm(hotPool)[:batchSize] {
					doms = append(doms, order[i])
				}
			} else {
				for i := 0; i < batchSize; i++ {
					d, _, err := pick()
					if err != nil {
						return plan{}, err
					}
					doms = append(doms, d)
				}
			}
			batches = append(batches, request{Domains: doms})
		}
		// Batch k follows single (k+1)·n/(batches+1), so a slow spell of
		// the host delays few of them.
		k := 0
		for i, r := range singles {
			p.Closed = append(p.Closed, r)
			if k < len(batches) && i+1 == (k+1)*len(singles)/(len(batches)+1) {
				p.Closed = append(p.Closed, batches[k])
				k++
			}
		}
		p.Closed = append(p.Closed, batches[k:]...)
	}
	rungs := spec.Ladder
	if traced {
		rungs = []rung{{Rate: spec.Ladder[spec.Ref].Rate, Share: 1}}
	}
	for _, r := range rungs {
		secs := r.Share * float64(seconds)
		d := time.Duration(secs * float64(time.Second))
		n := int(math.Round(r.Rate * secs))
		step := make([]request, n)
		for i, due := range arrivals(n, d) {
			dom, refresh, err := pick()
			if err != nil {
				return plan{}, err
			}
			step[i] = request{Due: due, Domains: []string{dom}, Refresh: refresh, Traced: traced && due/traceBlock%2 == 1}
		}
		p.Steps = append(p.Steps, step)
		p.Rates = append(p.Rates, r.Rate)
		p.Secs = append(p.Secs, secs)
	}
	return p, nil
}

func runServing(ctx context.Context, spec servingSpec, o options) (*runResult, error) {
	if o.Trace {
		tr := newTracer()
		env, err := setupServing(ctx, spec, o, tr)
		if err != nil {
			return nil, err
		}
		defer env.close()
		if spec.Hot {
			if err := env.warmUp(ctx); err != nil {
				return nil, err
			}
		}
		p, err := makePlan(spec, env.order, o.Seed, o.Seconds, true)
		if err != nil {
			return nil, err
		}
		return traceServing(ctx, spec, o, env, tr, p)
	}

	r := &runResult{Report: map[string]any{}}
	var (
		setups []time.Duration
		// warms are hot-zipf's warm passes, one per latency pass.
		warms []time.Duration
		p     plan
		sent  [][]request
		outs  [][]outcome
		steps []stepStats
		heap  float64
		// Checked verdicts: served and correct count towards accuracy,
		// the first verdict per domain towards pairord.
		served, correct int
		first           = map[string]verdict{}
		labelOf         = map[string]int{}
		order           []string
	)
	check := func(env *servingEnv, reqs []request, out []outcome) {
		for i, oc := range out {
			if len(reqs[i].Domains) != 1 || oc.failed(1) {
				continue
			}
			v := oc.Results[0]
			if want := reqs[i].Domains[0]; v.Domain != want {
				r.problem("asked for %s, got a verdict for %s", want, v.Domain)
				continue
			}
			served++
			if v.Legitimate == (env.labels[v.Domain] == ml.Legitimate) {
				correct++
			}
			if !spec.Hot && v.Cached {
				r.problem("never-seen domain %s was served from the cache", v.Domain)
			}
			if spec.Hot && v.TextProb != env.warm[v.Domain] {
				r.problem("%s: served textProb %v, warm-pass textProb %v", v.Domain, v.TextProb, env.warm[v.Domain])
			}
			if _, ok := first[v.Domain]; !ok {
				first[v.Domain] = v
				labelOf[v.Domain] = env.labels[v.Domain]
				order = append(order, v.Domain)
			}
		}
	}
	// pass runs the latency phase on one fresh set-up and, on the last
	// pass, the rate ladder after it.
	pass := func(env *servingEnv, last bool) error {
		if spec.Hot {
			t0 := time.Now()
			if err := env.warmUp(ctx); err != nil {
				return err
			}
			warms = append(warms, time.Since(t0))
		}
		var err error
		if p, err = makePlan(spec, env.order, o.Seed, o.Seconds, false); err != nil {
			return err
		}
		s, out := env.lg.closed(ctx, p.Closed)
		sent, outs = append(sent, s), append(outs, out)
		check(env, s, out)
		if !last {
			return nil
		}
		for i, step := range p.Steps {
			out := env.lg.run(ctx, step)
			st := summarize(p.Rates[i], p.Secs[i], step, out, spec.Limit)
			fmt.Println(st)
			steps = append(steps, st)
			r.Attempted += st.Attempted
			r.Failed += st.Failed
			check(env, step, out)
		}
		heap = heapMB()
		if !spec.Hot {
			checkTextProb(ctx, r, env, first, order, o.Seed)
		}
		return nil
	}
	// Every round times a fresh set-up; the first spec.Passes rounds then
	// serve a latency phase on it.
	for round := 0; round < setupRounds; round++ {
		runtime.GC()
		t0 := time.Now()
		env, err := setupServing(ctx, spec, o, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if round < spec.Passes {
			err = pass(env, round == spec.Passes-1)
		}
		env.close()
		if err != nil {
			return nil, err
		}
	}

	// The passes sent the same requests to identical fresh servers; each
	// request counts with its faster answer, so a slow spell of the host
	// has to catch it in every pass to show.
	var (
		latReqs    []request
		latOut     []outcome
		batchTimes []time.Duration
	)
	for i, req := range sent[0] {
		best := 0
		for k := range outs {
			r.Attempted++
			if outs[k][i].failed(len(req.Domains)) || (len(req.Domains) > 1 && outs[k][i].Ranked != len(req.Domains)) {
				r.Failed++
				r.problem("pass %d request %d (%d domains): status %d %s, %d ranked", k, i, len(req.Domains), outs[k][i].Status, outs[k][i].Err, outs[k][i].Ranked)
			}
			if outs[k][i].Done-sent[k][i].Due < outs[best][i].Done-sent[best][i].Due {
				best = k
			}
		}
		if len(req.Domains) == 1 {
			latReqs, latOut = append(latReqs, sent[best][i]), append(latOut, outs[best][i])
		} else {
			batchTimes = append(batchTimes, outs[best][i].Done-sent[best][i].Due)
		}
	}
	lat := summarize(0, 0, latReqs, latOut, spec.Limit)
	lat.Closed = true
	for k := range outs {
		lat.Seconds += float64(outs[k][len(outs[k])-1].Done) / 1e9
	}
	lat.Rate = ratio(float64(len(outs)*len(sent[0])), lat.Seconds)
	ms := make([]float64, len(latOut))
	for i, oc := range latOut {
		ms[i] = float64(oc.Done-latReqs[i].Due) / 1e6
	}
	lat.P50ms, lat.P99ms = blockPercentile(ms, spec.Blocks, 50), blockPercentile(ms, spec.Blocks, 99)
	fmt.Println(lat)
	if !lat.P99ms.OK {
		return nil, fmt.Errorf("latency phase has %d samples in %d blocks: too few for p99 with %d beyond it in each", lat.P99ms.N, spec.Blocks, minBeyond)
	}
	// A rung whose generator fell behind is invalid: its numbers describe
	// the generator, so it cannot meet the limit. The latency phase has
	// no generator to fall behind.
	slo := 0.0
	for _, st := range steps {
		if st.Meets && st.Rate > slo {
			slo = st.Rate
		}
	}
	if r.Failed > 0 {
		r.problem("%d of %d requests failed", r.Failed, r.Attempted)
	}
	scores := make([]float64, len(order))
	labels := make([]int, len(order))
	for i, d := range order {
		scores[i] = first[d].Rank
		labels[i] = labelOf[d]
	}

	warm := 0.0
	if len(warms) > 0 {
		warm = medianDuration(warms)
	}
	r.add("setup_s", medianDuration(setups)+warm, len(setups))
	r.add("p50_ms", lat.P50ms.Value, lat.P50ms.N)
	r.add("p99_ms", lat.P99ms.Value, lat.P99ms.N)
	r.add("slo_rps", slo, len(steps))
	r.add("ok_ratio", 1-float64(lat.OverLimit)/float64(lat.Attempted), lat.Attempted)
	r.add("accuracy", ratio(float64(correct), float64(served)), served)
	r.add("study_s", medianDuration(batchTimes), len(batchTimes))
	r.add("pairord", eval.PairwiseOrderedness(scores, labels), len(order))
	r.add("heap_mb", heap, 1)
	r.Correct = len(r.Problems) == 0
	r.Report["limit_ms"] = float64(spec.Limit) / 1e6
	r.Report["ladder_rps"] = p.Rates
	r.Report["latency_phase"] = lat
	r.Report["passes"] = spec.Passes
	r.Report["blocks"] = spec.Blocks
	r.Report["steps"] = steps
	r.Report["setup_s"] = seconds(setups)
	r.Report["warm_s"] = seconds(warms)
	r.Report["study_s"] = seconds(batchTimes)
	return r, nil
}

// checkTextProb re-crawls a seeded sample of served cold-stream domains
// offline with the serving crawl budget and checks that the served
// textProb equals Verifier.TextProb on the same evidence.
func checkTextProb(ctx context.Context, r *runResult, env *servingEnv, served map[string]verdict, order []string, seed int64) {
	sample := append([]string(nil), order...)
	rand.New(rand.NewSource(seed+1)).Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if len(sample) > textProbSample {
		sample = sample[:textProbSample]
	}
	pre := textproc.NewPreprocessor()
	for _, d := range sample {
		res := crawler.CrawlCtx(ctx, env.world, d, servingCrawl)
		want := env.model.TextProb(pre.Terms(textproc.Summarize(res.Text())))
		if got := served[d].TextProb; got != want {
			r.problem("%s: served textProb %v, offline Verifier.TextProb %v", d, got, want)
		}
	}
}

// traceServing is the traced run of a serving workload: the reference
// rate for the whole time, alternating untraced and traced blocks, with
// /metrics scraped before and after. The per-layer numbers come from the
// spans of the traced requests and the /metrics differences; the tracing
// overhead is the traced requests' p50 over the untraced ones'.
func traceServing(ctx context.Context, spec servingSpec, o options, env *servingEnv, tr *tracer, p plan) (*runResult, error) {
	r := &runResult{Report: map[string]any{}}
	before, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	reqs := p.Steps[0]
	out := env.lg.run(ctx, reqs)
	after, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	st := summarize(p.Rates[0], p.Secs[0], reqs, out, spec.Limit)
	var plainLat, tracedLat []float64
	pages := 0
	for i, oc := range out {
		l := float64(oc.Done-reqs[i].Due) / 1e6
		if !reqs[i].Traced {
			plainLat = append(plainLat, l)
			continue
		}
		tracedLat = append(tracedLat, l)
		for _, v := range oc.Results {
			if !v.Cached {
				pages += v.Pages
			}
		}
	}
	plain, traced := percentile(plainLat, 50), percentile(tracedLat, 50)
	fmt.Println(st)
	fmt.Printf("p50 untraced %.3f ms (n=%d), traced %.3f ms (n=%d)\n", plain.Value, plain.N, traced.Value, traced.N)
	spans := tr.take()
	if err := writeSpans(o.Spans, spans); err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = st.Attempted, st.Failed
	if r.Failed > 0 {
		r.problem("%d of %d requests failed", r.Failed, r.Attempted)
	}

	d := func(series string) float64 { return delta(before, after, series) }
	sum := func(hist string) float64 { return d(hist + "_sum") }
	count := func(hist string) float64 { return d(hist + "_count") }
	src := func(name string) (float64, float64) {
		l := `{source="` + name + `"}`
		return d("pharmaverify_source_duration_seconds_sum" + l), d("pharmaverify_source_duration_seconds_count" + l)
	}
	crawls := d("pharmaverify_crawls_total")
	refreshSum := sum("pharmaverify_linkgraph_refresh_duration_seconds")
	crawlSum := sum("pharmaverify_crawl_duration_seconds")
	preSum := sum("pharmaverify_preprocess_duration_seconds")
	textSum, textN := src("text")
	netSum, netN := src("network")
	regSum, regN := src("registry")
	hits, misses := d("pharmaverify_cache_hits_total"), d("pharmaverify_cache_misses_total")
	deduped := d(`pharmaverify_domains_total{outcome="deduped"}`)
	crawled := d(`pharmaverify_domains_total{outcome="crawled"}`)

	sp := byName(spans)
	handler, client, fetches := sp["serve.handler"], sp["client.request"], sp["crawler.fetch"]
	// The handler's own time: its mean span minus what the crawl, the
	// preprocessing and the evidence sources account for per request
	// (the /metrics sums cover traced and untraced requests alike).
	stages := crawlSum + preSum + textSum + netSum + regSum
	selfUS := handler.meanUS() - ratio(stages, float64(st.Attempted))*1e6

	r.add("trust.refreshes_per_crawl", ratio(d("pharmaverify_linkgraph_refreshes_total"), crawls), int(crawls))
	r.add("trust.refresh_ms", ratio(refreshSum, count("pharmaverify_linkgraph_refresh_duration_seconds"))*1e3, int(count("pharmaverify_linkgraph_refresh_duration_seconds")))
	r.add("trust.refresh_busy_s", refreshSum, 1)
	r.add("trust.graph_nodes", after["pharmaverify_linkgraph_nodes"], 1)
	r.add("trust.graph_edges", after["pharmaverify_linkgraph_edges"], 1)
	r.add("crawler.crawls", crawls, 1)
	r.add("crawler.crawl_ms", ratio(crawlSum, count("pharmaverify_crawl_duration_seconds"))*1e3, int(count("pharmaverify_crawl_duration_seconds")))
	r.add("crawler.fetches", float64(fetches.N), 1)
	r.add("crawler.fetch_us", fetches.meanUS(), fetches.N)
	r.add("crawler.useful_ratio", ratio(float64(pages), float64(fetches.N)), fetches.N)
	r.add("textproc.preprocess_ms", ratio(preSum, count("pharmaverify_preprocess_duration_seconds"))*1e3, int(count("pharmaverify_preprocess_duration_seconds")))
	r.add("serve.source_text_us", ratio(textSum, textN)*1e6, int(textN))
	r.add("serve.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.add("serve.cache_evictions", d("pharmaverify_cache_evictions_total"), 1)
	r.add("serve.self_us", selfUS, handler.N)
	r.add("serve.queue_rejections", d("pharmaverify_queue_rejections_total"), 1)
	r.add("serve.dedup_ratio", ratio(deduped, deduped+crawled), int(deduped+crawled))
	r.add("serve.source_network_us", ratio(netSum, netN)*1e6, int(netN))
	r.add("serve.source_registry_us", ratio(regSum, regN)*1e6, int(regN))
	r.add("request.residual_us", client.meanUS()-handler.meanUS(), client.N)
	for _, name := range studyLayers {
		r.add(name, 0, 0)
	}
	r.add("loadgen.lag_ms", st.LagP99ms, st.Attempted)
	r.add("loadgen.backlog", float64(st.BacklogMax), st.Attempted)
	r.add("trace.overhead_pct", 100*ratio(traced.Value-plain.Value, plain.Value), traced.N)
	r.Correct = len(r.Problems) == 0
	r.Report["limit_ms"] = float64(spec.Limit) / 1e6
	r.Report["reference_rps"] = p.Rates[0]
	r.Report["steps"] = []stepStats{st}
	r.Report["spans"] = len(spans)
	r.Report["handler_stage_residual_us"] = selfUS
	return r, nil
}
