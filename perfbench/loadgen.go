package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/serve"
)

// request is one scheduled POST /v1/verify.
type request struct {
	Due     time.Duration // offset from the step's start
	Domains []string      // one domain, or a ranked batch
	Refresh bool
	// Traced requests carry the trace headers (traced runs only).
	Traced bool
}

// outcome is what the generator observed for one request. Times are
// offsets from the step's start: Taken is when a sender picked the
// request up, Sent when it started the POST, Done when the response
// was read.
type outcome struct {
	Taken, Sent, Done time.Duration
	Status            int
	Err               string
	Results           []verdict
	// Ranked is the length of a batch response's ranking.
	Ranked int
}

// verdict is the part of a served serve.DomainVerdict the benchmark
// checks; keeping only it keeps the generator's records out of the
// heap being measured.
type verdict struct {
	Domain         string
	Legitimate     bool
	Rank, TextProb float64
	Pages          int
	Cached         bool
	Error          string
}

// failed reports a transport error, a non-200 status (429 included) or a
// response without exactly one error-free result per domain asked.
func (o outcome) failed(want int) bool {
	if o.Err != "" || o.Status != http.StatusOK || len(o.Results) != want {
		return true
	}
	for _, v := range o.Results {
		if v.Error != "" {
			return true
		}
	}
	return false
}

// arrivals returns the send offsets of n requests spread evenly over d:
// an open loop at a fixed offered rate of n/d per second. Even spacing
// keeps the rate fixed at every time scale, so a rung's tail latency
// measures the server rather than the burst pattern of one seed.
func arrivals(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(int64(i) * int64(d) / int64(n))
	}
	return out
}

// loadgen drives the handler over loopback with a fixed number of
// senders, each holding one keep-alive connection.
type loadgen struct {
	base    string
	client  *http.Client
	senders int
	tr      *tracer // nil: untraced
}

func newLoadgen(base string, senders int, tr *tracer) *loadgen {
	return &loadgen{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		}},
		senders: senders,
		tr:      tr,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// post sends one verify request and decodes the response.
func (g *loadgen) post(ctx context.Context, req request) outcome {
	body := serve.VerifyRequest{Refresh: req.Refresh}
	if len(req.Domains) == 1 {
		body.Domain = req.Domains[0]
	} else {
		body.Domains = req.Domains
	}
	b, err := json.Marshal(body)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/verify", bytes.NewReader(b))
	if err != nil {
		return outcome{Err: err.Error()}
	}
	hr.Header.Set("Content-Type", "application/json")
	var root span
	if req.Traced && g.tr != nil {
		root = span{Trace: g.tr.id(), Name: "client.request", Start: g.tr.now()}
		root.ID = root.Trace
		hr.Header.Set(hdrTrace, strconv.FormatUint(root.Trace, 10))
		hr.Header.Set(hdrParent, strconv.FormatUint(root.ID, 10))
		if len(req.Domains) == 1 {
			hr.Header.Set(hdrDomain, req.Domains[0])
		}
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	defer resp.Body.Close()
	o := outcome{Status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var vr serve.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			o.Err = "decode: " + err.Error()
		}
		o.Ranked = len(vr.Ranking)
		o.Results = make([]verdict, len(vr.Results))
		for i, v := range vr.Results {
			o.Results[i] = verdict{Domain: v.Domain, Legitimate: v.Legitimate, Rank: v.Rank, TextProb: v.TextProb,
				Pages: v.Pages, Cached: v.Cached, Error: v.Error}
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && o.Err == "" {
		o.Err = err.Error()
	}
	if root.Trace != 0 {
		root.End = g.tr.now()
		g.tr.add(root)
	}
	return o
}

// spinWindow is how long before a due time a sender stops sleeping and
// polls the clock instead: the runtime's timers wake sleepers up to a
// millisecond late, which would otherwise be charged to every request.
const spinWindow = 2500 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// run sends reqs on their schedule (open loop) and waits for every
// response. Senders pull requests in due order; a request whose due time
// passes while every sender is busy waits in the generator's backlog and
// its latency, timed from the due time, includes that wait.
func (g *loadgen) run(ctx context.Context, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < g.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				taken := time.Since(start)
				waitUntil(start.Add(reqs[i].Due))
				sent := time.Since(start)
				o := g.post(ctx, reqs[i])
				o.Taken, o.Sent, o.Done = taken, sent, time.Since(start)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// closed sends reqs one after another from a single caller (a closed
// loop): each request goes out when the previous response has been
// read, so its latency is the server's alone and no backlog can form.
// It returns the requests with Due set to their send offsets, which
// summarize then times them from, and the outcomes.
func (g *loadgen) closed(ctx context.Context, reqs []request) ([]request, []outcome) {
	sent := make([]request, len(reqs))
	out := make([]outcome, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		r.Due = time.Since(start)
		o := g.post(ctx, r)
		o.Taken, o.Sent, o.Done = r.Due, r.Due, time.Since(start)
		sent[i], out[i] = r, o
	}
	return sent, out
}

// stepStats summarizes one rate step of an open loop, or the closed
// loop of a latency phase.
type stepStats struct {
	// Closed marks a closed loop; Rate is then the achieved rate.
	Closed    bool    `json:"closed_loop,omitempty"`
	Rate      float64 `json:"rate_rps"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	// OverLimit counts failed requests plus those slower than the
	// latency limit.
	OverLimit int `json:"over_limit"`
	P50ms     pct `json:"p50_ms"`
	P99ms     pct `json:"p99_ms"`
	// LagP50ms/LagP99ms are the generator's own lateness: how long after
	// a request's due time (or after a sender freed up, if later) the
	// POST started.
	LagP50ms float64 `json:"lag_p50_ms"`
	LagP99ms float64 `json:"lag_p99_ms"`
	// BacklogMax is the most due-but-unsent requests any sender saw when
	// picking up work; BacklogEnd counts those still unsent when the
	// step's last request fell due.
	BacklogMax int `json:"backlog_max"`
	BacklogEnd int `json:"backlog_end"`
	// GeneratorOK is false when the generator itself fell behind; such a
	// step's numbers describe the generator, not the server.
	GeneratorOK bool `json:"generator_ok"`
	// Meets reports that the step meets the latency limit: a valid
	// generator, no failures, at most 1% of requests over the limit and
	// no growing backlog.
	Meets bool `json:"meets_limit"`
}

// maxGenLag is the share of the latency limit the generator's own p99
// lateness may reach before its step is invalid.
const maxGenLag = 0.25

// summarize computes a step's statistics against a latency limit.
func summarize(rate, seconds float64, reqs []request, out []outcome, limit time.Duration) stepStats {
	st := stepStats{Rate: rate, Seconds: seconds, Attempted: len(reqs)}
	lat := make([]float64, 0, len(out))
	lag := make([]float64, 0, len(out))
	dues := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		dues[i] = r.Due
	}
	for i, o := range out {
		r := reqs[i]
		l := o.Done - r.Due
		lat = append(lat, float64(l)/1e6)
		ready := r.Due
		if o.Taken > ready {
			ready = o.Taken
		}
		lag = append(lag, float64(o.Sent-ready)/1e6)
		// Requests already due when this one was picked up and not yet
		// picked up themselves.
		if b := sort.Search(len(dues), func(j int) bool { return dues[j] > o.Taken }) - i - 1; b > st.BacklogMax {
			st.BacklogMax = b
		}
		if len(reqs) > 0 && o.Taken > reqs[len(reqs)-1].Due {
			st.BacklogEnd++
		}
		switch {
		case o.failed(len(r.Domains)):
			st.Failed++
			st.OverLimit++
		case l > limit:
			st.Succeeded++
			st.OverLimit++
		default:
			st.Succeeded++
		}
	}
	st.P50ms = percentile(append([]float64(nil), lat...), 50)
	st.P99ms = percentile(lat, 99)
	lp50, lp99 := percentile(append([]float64(nil), lag...), 50), percentile(lag, 99)
	st.LagP50ms, st.LagP99ms = lp50.Value, lp99.Value
	st.GeneratorOK = len(lag) == 0 || st.LagP99ms <= maxGenLag*float64(limit)/1e6
	// A backlog larger than the requests the offered rate brings within
	// one latency limit cannot drain in time.
	st.Meets = st.GeneratorOK && st.Failed == 0 &&
		float64(st.OverLimit) <= 0.01*float64(st.Attempted) &&
		float64(st.BacklogEnd) <= rate*limit.Seconds()
	return st
}

func (s stepStats) String() string {
	p99 := fmt.Sprintf("%.3f", s.P99ms.Value)
	if !s.P99ms.OK {
		p99 += fmt.Sprintf(" (unsupported: %d beyond)", s.P99ms.Beyond)
	}
	if s.Closed {
		return fmt.Sprintf("closed loop, one caller, %4.1fs at %.0f rps: attempted %d succeeded %d failed %d over-limit %d p50 %.3f ms p99 %s ms (n=%d)",
			s.Seconds, s.Rate, s.Attempted, s.Succeeded, s.Failed, s.OverLimit, s.P50ms.Value, p99, s.P50ms.N)
	}
	return fmt.Sprintf("step %6.0f rps %4.1fs: attempted %d succeeded %d failed %d over-limit %d p50 %.3f ms p99 %s ms (n=%d) lag p99 %.3f ms backlog max %d end %d generator-ok %v meets-limit %v",
		s.Rate, s.Seconds, s.Attempted, s.Succeeded, s.Failed, s.OverLimit, s.P50ms.Value, p99, s.P50ms.N,
		s.LagP99ms, s.BacklogMax, s.BacklogEnd, s.GeneratorOK, s.Meets)
}
