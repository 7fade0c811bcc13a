package crawler

import (
	"strings"
)

// Robots is a parsed robots.txt policy for one domain, covering the
// subset of the de-facto standard that matters for a verification
// crawler: User-agent groups, Disallow and Allow prefix rules, with
// longest-match precedence (Google's documented tie-breaking).
//
// crawler4j — the crawler the paper used — honors robots.txt; CrawlCtx
// does the same when the Fetcher serves a /robots.txt document.
type Robots struct {
	groups []robotsGroup
}

type robotsGroup struct {
	agents []string // lower-case, "*" for wildcard
	rules  []robotsRule
}

type robotsRule struct {
	allow  bool
	prefix string
}

// ParseRobots parses a robots.txt body. Unknown directives are ignored.
func ParseRobots(body string) *Robots {
	r := &Robots{}
	var cur *robotsGroup
	agentsOpen := false // consecutive User-agent lines share a group
	for _, line := range strings.Split(body, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		field := strings.ToLower(strings.TrimSpace(line[:colon]))
		value := strings.TrimSpace(line[colon+1:])
		switch field {
		case "user-agent":
			if !agentsOpen {
				r.groups = append(r.groups, robotsGroup{})
				cur = &r.groups[len(r.groups)-1]
				agentsOpen = true
			}
			cur.agents = append(cur.agents, strings.ToLower(value))
		case "disallow", "allow":
			if cur == nil {
				// Rules before any User-agent line apply to everyone.
				r.groups = append(r.groups, robotsGroup{agents: []string{"*"}})
				cur = &r.groups[len(r.groups)-1]
			}
			agentsOpen = false
			cur.rules = append(cur.rules, robotsRule{
				allow:  field == "allow",
				prefix: value,
			})
		default:
			agentsOpen = false
		}
	}
	return r
}

// Allowed reports whether the user agent may fetch the path. An empty
// Disallow value allows everything; the longest matching rule wins,
// with Allow preferred on equal length.
func (r *Robots) Allowed(userAgent, path string) bool {
	if r == nil {
		return true
	}
	group := r.match(userAgent)
	if group == nil {
		return true
	}
	bestLen := -1
	allowed := true
	for _, rule := range group.rules {
		if rule.prefix == "" {
			if !rule.allow && bestLen < 0 {
				// "Disallow:" with empty value means allow all; it only
				// matters when nothing else matched.
				continue
			}
			continue
		}
		if !strings.HasPrefix(path, rule.prefix) {
			continue
		}
		l := len(rule.prefix)
		if l > bestLen || (l == bestLen && rule.allow && !allowed) {
			bestLen = l
			allowed = rule.allow
		}
	}
	return allowed
}

// match finds the most specific group for a user agent: an exact or
// substring agent match beats the "*" group.
func (r *Robots) match(userAgent string) *robotsGroup {
	ua := strings.ToLower(userAgent)
	var wildcard *robotsGroup
	var best *robotsGroup
	bestLen := 0
	for i := range r.groups {
		g := &r.groups[i]
		for _, a := range g.agents {
			switch {
			case a == "*":
				if wildcard == nil {
					wildcard = g
				}
			case strings.Contains(ua, a) && len(a) > bestLen:
				best = g
				bestLen = len(a)
			}
		}
	}
	if best != nil {
		return best
	}
	return wildcard
}
