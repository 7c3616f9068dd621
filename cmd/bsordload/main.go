// Command bsordload drives a running bsord daemon with a configurable
// herd of concurrent clients and reports latency percentiles, status
// counts, the cache/singleflight dedup rate, and a byte-identity check:
// every 200 body observed for the same canonical spec key must hash
// identically, or the run fails.
//
// By default all clients post the same spec (the worst-case thundering
// herd the daemon's singleflight layer exists for); -distinct K rotates
// K spec names so the run exercises K independent cache keys.
//
// Exit status: 0 on success, 1 when a -p99-budget / -max-error-rate /
// -min-dedup budget is violated or bodies diverge, 2 on setup errors.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var (
	baseURL  = flag.String("url", "http://127.0.0.1:7410", "bsord base URL")
	endpoint = flag.String("endpoint", "synthesize", "endpoint to drive: synthesize | explore | sim | verify")
	specPath = flag.String("spec", "", "spec JSON file to post (default: built-in 4x4 mesh transpose)")
	clients  = flag.Int("clients", 64, "concurrent clients")
	total    = flag.Int("n", 0, "total requests (0 = 10 per client)")
	distinct = flag.Int("distinct", 1, "rotate this many distinct spec names (1 = identical herd)")
	reqTO    = flag.Duration("request-timeout", 2*time.Minute, "per-request client timeout")
	jsonOut  = flag.Bool("json", false, "print the summary as JSON instead of text")

	p99Budget    = flag.Duration("p99-budget", 0, "fail if p99 latency exceeds this (0 = no budget)")
	maxErrorRate = flag.Float64("max-error-rate", -1, "fail if the non-2xx+transport error fraction exceeds this (negative = no budget)")
	minDedup     = flag.Float64("min-dedup", -1, "fail if the cache+singleflight dedup fraction of successes falls below this (negative = no budget)")
)

const defaultSpec = `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","vcs":2}`

// sample is one request's outcome. source is the X-Cache header:
// "miss" (this request computed), "hit" (response cache), "dedup"
// (coalesced onto an in-flight computation); empty on errors.
type sample struct {
	latency time.Duration
	status  int // -1 = transport error
	source  string
	key     string // X-Cache-Key of the canonical spec
	bodySum string // sha256 of the body, 200s only
}

// summary is the machine-readable run report (-json).
type summary struct {
	URL       string            `json:"url"`
	Endpoint  string            `json:"endpoint"`
	Clients   int               `json:"clients"`
	Requests  int               `json:"requests"`
	Distinct  int               `json:"distinct_specs"`
	Wall      string            `json:"wall_time"`
	Rate      float64           `json:"requests_per_second"`
	P50       string            `json:"p50"`
	P90       string            `json:"p90"`
	P99       string            `json:"p99"`
	Max       string            `json:"max"`
	OK        int               `json:"ok"`
	Shed      int               `json:"shed_429"`
	Errors    int               `json:"errors"`
	ErrorRate float64           `json:"error_rate"`
	Miss      int               `json:"computed"`
	Hit       int               `json:"cache_hits"`
	Dedup     int               `json:"singleflight_dedup"`
	DedupRate float64           `json:"dedup_rate"`
	Keys      int               `json:"distinct_keys"`
	Bodies    int               `json:"distinct_bodies"`
	BodySums  map[string]string `json:"body_sha256_by_key"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bsordload: ")
	flag.Parse()
	if *clients < 1 || *distinct < 1 {
		log.Print("-clients and -distinct must be positive")
		os.Exit(2)
	}
	n := *total
	if n <= 0 {
		n = 10 * *clients
	}

	spec := []byte(defaultSpec)
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			log.Printf("read spec: %v", err)
			os.Exit(2)
		}
		spec = b
	}
	payloads, err := buildPayloads(spec, *distinct)
	if err != nil {
		log.Printf("build payloads: %v", err)
		os.Exit(2)
	}
	url := *baseURL + "/v1/" + *endpoint

	client := &http.Client{
		Timeout: *reqTO,
		Transport: &http.Transport{
			MaxIdleConns:        *clients,
			MaxIdleConnsPerHost: *clients,
		},
	}

	samples := make([]sample, n)
	var next atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range *clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				samples[i] = shoot(client, url, payloads[i%len(payloads)])
			}
		}()
	}
	wallStart := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(wallStart)

	s, bad := summarize(samples, wall)
	if *jsonOut {
		out, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			log.Fatalf("marshal summary: %v", err)
		}
		fmt.Printf("%s\n", out)
	} else {
		printSummary(s)
	}
	for _, msg := range bad {
		log.Print(msg)
	}
	bad = append(bad, checkBudgets(s)...)
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// buildPayloads renders k request bodies from the base spec, rotating
// the spec's name (part of the canonical cache key) to fan the herd
// over k keys.
func buildPayloads(spec []byte, k int) ([][]byte, error) {
	if k == 1 {
		return [][]byte{spec}, nil
	}
	var doc map[string]any
	if err := json.Unmarshal(spec, &doc); err != nil {
		return nil, err
	}
	out := make([][]byte, k)
	for i := range k {
		doc["name"] = fmt.Sprintf("load-%03d", i)
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func shoot(client *http.Client, url string, payload []byte) sample {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return sample{latency: time.Since(t0), status: -1}
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{
		latency: time.Since(t0),
		status:  resp.StatusCode,
		source:  resp.Header.Get("X-Cache"),
		key:     resp.Header.Get("X-Cache-Key"),
	}
	if readErr != nil {
		s.status = -1
		return s
	}
	if s.status == http.StatusOK {
		sum := sha256.Sum256(body)
		s.bodySum = hex.EncodeToString(sum[:])
	}
	return s
}

func summarize(samples []sample, wall time.Duration) (summary, []string) {
	s := summary{
		URL:      *baseURL,
		Endpoint: *endpoint,
		Clients:  *clients,
		Requests: len(samples),
		Distinct: *distinct,
		Wall:     wall.Round(time.Millisecond).String(),
		Rate:     float64(len(samples)) / wall.Seconds(),
		BodySums: make(map[string]string),
	}
	lat := make([]time.Duration, 0, len(samples))
	bodies := make(map[string]map[string]bool) // key -> set of body sums
	var bad []string
	for _, sm := range samples {
		lat = append(lat, sm.latency)
		switch {
		case sm.status == http.StatusOK:
			s.OK++
		case sm.status == http.StatusTooManyRequests:
			s.Shed++
		default:
			s.Errors++
		}
		switch sm.source {
		case "miss":
			s.Miss++
		case "hit":
			s.Hit++
		case "dedup":
			s.Dedup++
		}
		if sm.bodySum != "" {
			set := bodies[sm.key]
			if set == nil {
				set = make(map[string]bool)
				bodies[sm.key] = set
			}
			set[sm.bodySum] = true
		}
	}
	// Sheds are expected backpressure, not errors — but they do count
	// against the error budget (the client did not get an answer).
	s.ErrorRate = float64(s.Errors+s.Shed) / float64(len(samples))
	if answered := s.Miss + s.Hit + s.Dedup; answered > 0 {
		s.DedupRate = float64(s.Hit+s.Dedup) / float64(answered)
	}
	s.Keys = len(bodies)
	for key, set := range bodies {
		s.Bodies += len(set)
		for sum := range set {
			s.BodySums[key] = sum
		}
		if len(set) > 1 {
			bad = append(bad, fmt.Sprintf("BYTE-IDENTITY VIOLATION: key %s served %d distinct bodies", key, len(set)))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.P50 = percentile(lat, 0.50).String()
	s.P90 = percentile(lat, 0.90).String()
	s.P99 = percentile(lat, 0.99).String()
	if len(lat) > 0 {
		s.Max = lat[len(lat)-1].Round(time.Microsecond).String()
	}
	return s, bad
}

// percentile reads the p-quantile from ascending latencies
// (nearest-rank method).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

func checkBudgets(s summary) []string {
	var bad []string
	if *p99Budget > 0 {
		if p99, err := time.ParseDuration(s.P99); err == nil && p99 > *p99Budget {
			bad = append(bad, fmt.Sprintf("P99 BUDGET VIOLATION: %s > %s", p99, *p99Budget))
		}
	}
	if *maxErrorRate >= 0 && s.ErrorRate > *maxErrorRate {
		bad = append(bad, fmt.Sprintf("ERROR BUDGET VIOLATION: rate %.4f > %.4f", s.ErrorRate, *maxErrorRate))
	}
	if *minDedup >= 0 && s.DedupRate < *minDedup {
		bad = append(bad, fmt.Sprintf("DEDUP BUDGET VIOLATION: rate %.4f < %.4f", s.DedupRate, *minDedup))
	}
	return bad
}

func printSummary(s summary) {
	fmt.Printf("bsordload: %d requests, %d clients, %d distinct spec(s) -> %s%s\n",
		s.Requests, s.Clients, s.Distinct, s.URL, "/v1/"+s.Endpoint)
	fmt.Printf("  wall %-10s  %8.1f req/s\n", s.Wall, s.Rate)
	fmt.Printf("  latency  p50 %-10s p90 %-10s p99 %-10s max %s\n", s.P50, s.P90, s.P99, s.Max)
	fmt.Printf("  status   ok %d  shed(429) %d  error %d  (error rate %.4f)\n",
		s.OK, s.Shed, s.Errors, s.ErrorRate)
	fmt.Printf("  dedup    computed %d  cache-hit %d  singleflight %d  (dedup rate %.4f)\n",
		s.Miss, s.Hit, s.Dedup, s.DedupRate)
	fmt.Printf("  identity %d key(s), %d distinct body(ies)\n", s.Keys, s.Bodies)
	for key, sum := range s.BodySums {
		fmt.Printf("           key %s body sha256 %s\n", key, sum[:16])
	}
}
