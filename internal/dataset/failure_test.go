package dataset

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"pharmaverify/internal/crawler"
	"pharmaverify/internal/ml"
)

// flakyFetcher fails every nth fetch, simulating timeouts and vanished
// pages — routine conditions when crawling illegitimate pharmacies,
// which appear and disappear at a high rate (paper §2.1).
type flakyFetcher struct {
	inner crawler.Fetcher
	n     int32
	count int32
}

func (f *flakyFetcher) Fetch(domain, path string) (string, error) {
	if atomic.AddInt32(&f.count, 1)%f.n == 0 {
		return "", errors.New("simulated timeout")
	}
	return f.inner.Fetch(domain, path)
}

// staticSite serves a small fixed site for any domain.
type staticSite struct{}

func (staticSite) Fetch(domain, path string) (string, error) {
	switch path {
	case "/":
		return `<title>t</title><a href="/a">a</a><a href="/b">b</a><a href="http://ext.example/x">e</a><p>front page words</p>`, nil
	case "/a":
		return `<p>page a healthy content</p>`, nil
	case "/b":
		return `<p>page b more content</p>`, nil
	}
	return "", errors.New("404")
}

func TestBuildSurvivesFlakyFetches(t *testing.T) {
	f := &flakyFetcher{inner: staticSite{}, n: 3}
	domains := []string{"d1.example", "d2.example", "d3.example"}
	labels := map[string]int{"d1.example": 1, "d2.example": 0, "d3.example": 0}
	snap, err := BuildCtx(context.Background(), "flaky", f, domains, labels, BuildOptions{Crawl: crawler.Config{Workers: 1}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 3 {
		t.Fatalf("len = %d", snap.Len())
	}
	// Some pages failed, but whatever was fetched must be preprocessed.
	totalPages := 0
	for _, p := range snap.Pharmacies {
		totalPages += p.Pages
	}
	if totalPages == 0 {
		t.Error("no pages at all despite partial availability")
	}
}

func TestBuildTotalFetchFailure(t *testing.T) {
	dead := crawler.FetcherFunc(func(domain, path string) (string, error) {
		return "", errors.New("connection refused")
	})
	snap, err := BuildCtx(context.Background(), "dead", dead, []string{"gone.example"}, map[string]int{"gone.example": 0}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := snap.Pharmacies[0]
	if p.Pages != 0 || len(p.Terms) != 0 || len(p.Outbound) != 0 {
		t.Errorf("dead site must produce an empty pharmacy record: %+v", p)
	}
	if p.Label != ml.Illegitimate {
		t.Error("label must survive even with no content")
	}
}

func TestBuildHugePageTruncationFree(t *testing.T) {
	// A pathological page (1 MB of text) must flow through
	// summarization without corruption.
	big := crawler.FetcherFunc(func(domain, path string) (string, error) {
		if path != "/" {
			return "", errors.New("404")
		}
		return "<p>" + strings.Repeat("megapage viagra content ", 40000) + "</p>", nil
	})
	snap, err := BuildCtx(context.Background(), "big", big, []string{"big.example"}, map[string]int{"big.example": 0}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Pharmacies[0].Terms) < 100000 {
		t.Errorf("terms = %d, expected the full page tokenized", len(snap.Pharmacies[0].Terms))
	}
}
