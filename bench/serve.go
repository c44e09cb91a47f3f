package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/maintain"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/server"
)

// serve-churn: one service hosting serveSets datasets behind a loopback
// HTTP listener, requests arriving on a fixed schedule drawn from the
// seed whether or not earlier ones have finished (independent users, so
// an open loop). Each request goes to a dataset drawn from the seed; the
// reported latencies are means over the datasets, so one dataset's
// skyline size does not decide a run.
// Latency runs from the moment a request was due, not from when it was
// sent. The three rates are frozen absolute values: about 25, 50 and
// 90 % of what two closed-loop clients drew from this mix on the
// reference box at the commit that added the benchmark.
const (
	serveSets  = 8 // datasets hosted by the one service
	serveRows  = 15000
	serveDims  = 6
	serveBatch = 16 // rows per ingest
	serveTail  = 0.90
	serveR1    = 32.0 // ops/s
	serveR2    = 64.0
	serveR3    = 116.0
	// serveLimitMS is the latency limit on the query tail that a rate
	// must meet to count for server.max_rate_ok.
	serveLimitMS = 250.0
	// checkEvery: every n-th query is checked against a sequential solve.
	checkEvery = 20
)

type serveKind int

const (
	kSkyline serveKind = iota
	kQuery
	kIngest
)

// serveSpans names the span of each request kind.
var serveSpans = [...]string{kSkyline: "server.http_skyline", kQuery: "server.http_query", kIngest: "server.http_ingest"}

// pref is one resolved preference of a query shape.
type pref struct {
	col int
	max bool
}

// serveJob is one scheduled request.
type serveJob struct {
	set     int // index of the dataset addressed
	kind    serveKind
	due     time.Duration // offset from the step's start
	body    []byte
	prefs   []pref      // kQuery
	batch   point.Block // kIngest
	checked bool        // kQuery: verify the answer after the run
}

// serveDone is what one finished request left behind.
type serveDone struct {
	set     int
	kind    serveKind
	latency time.Duration // from the due time
	lag     time.Duration // how late the generator sent it
	bytes   int
	hit     bool
	status  int
	err     error
	// A checked query keeps its answer and the number of rows the log
	// held when it ran.
	rows    []int
	logRows int
	prefs   []pref
}

type serveEnv struct {
	svc    *server.Service
	ts     *httptest.Server
	client *http.Client
	nproc  int
	attrs  []string
	sets   []*serveSet
}

// serveSet is one hosted dataset as the generator sees it.
type serveSet struct {
	name string
	base *point.Dataset
	// log mirrors the server's append-only row log. Ingests hold mu for
	// writing so they reach the server in one order; a checked query
	// holds it for reading so the state it saw is known.
	mu  sync.RWMutex
	log []float64
}

func (s *serveSet) url(e *serveEnv, route string) string {
	return e.ts.URL + "/datasets/" + s.name + route
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
}

func setUpServe(n int, seed int64) (*serveEnv, error) {
	e := &serveEnv{nproc: runtime.GOMAXPROCS(0), svc: server.NewService(server.Config{Bits: 16})}
	for i := 0; i < serveDims; i++ {
		e.attrs = append(e.attrs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < serveSets; i++ {
		set := &serveSet{name: fmt.Sprintf("d%d", i),
			base: gen.Synthetic(gen.AntiCorrelated, n, serveDims, seed*serveSets+int64(i))}
		blk := point.BlockOf(serveDims, set.base.Points)
		if _, err := reference(blk); err != nil {
			return nil, err
		}
		set.log = blk.Data
		mins, maxs, err := set.base.Bounds()
		if err != nil {
			return nil, err
		}
		eng, err := e.svc.CreateDataset(server.DatasetSpec{Name: set.name, Attrs: e.attrs, Mins: mins, Maxs: maxs})
		if err != nil {
			return nil, err
		}
		if _, err := e.svc.Ingest(eng, blk); err != nil {
			return nil, err
		}
		e.sets = append(e.sets, set)
	}
	e.ts = httptest.NewServer(e.svc.Handler())
	e.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc}}
	// Warm the connections, the JSON paths and the result cache's code.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*e.nproc; i++ {
		for _, j := range []serveJob{{kind: kSkyline}, e.queryJob(rng, nil)} {
			j.set = i % serveSets
			if d := e.do(j); d.err != nil || d.status != http.StatusOK {
				e.close()
				return nil, fmt.Errorf("warm-up request failed: status %d, %v", d.status, d.err)
			}
		}
	}
	return e, nil
}

// queryJob draws a preference shape of 2 to 5 attributes: from the hot
// pool half the time (so the cache can hit), fresh otherwise.
func (e *serveEnv) queryJob(rng *rand.Rand, hot [][]pref) serveJob {
	var prefs []pref
	if hot != nil && rng.Intn(2) == 0 {
		prefs = hot[rng.Intn(len(hot))]
	} else {
		prefs = randomShape(rng, 2+rng.Intn(4))
	}
	type term struct {
		Attr string `json:"attr"`
		Dir  string `json:"dir"`
	}
	terms := make([]term, len(prefs))
	for i, p := range prefs {
		terms[i] = term{e.attrs[p.col], "min"}
		if p.max {
			terms[i].Dir = "max"
		}
	}
	body, _ := json.Marshal(map[string]any{"prefer": terms}) // cannot fail: strings only
	return serveJob{kind: kQuery, body: body, prefs: prefs}
}

// randomShape draws k attributes and a direction for each.
func randomShape(rng *rand.Rand, k int) []pref {
	cols := rng.Perm(serveDims)[:k]
	sort.Ints(cols)
	prefs := make([]pref, k)
	for i, c := range cols {
		prefs[i] = pref{c, rng.Intn(2) == 1}
	}
	return prefs
}

// servePattern is the repeating order of request kinds: 45 % GET
// /skyline, 45 % POST /query, 10 % ingest. Fixing the order keeps the mix
// exact on every seed; the seed draws everything else.
const servePattern = "SQSQSQSQSI" + "QSQSQSQSQI"

// schedule draws a step's requests from the seed: one arrival at a
// random instant of every 1/rate-second slot for the given time, of the
// kind servePattern gives, an ingest carrying serveBatch fresh rows.
// Every step of a run draws the same sequence of operations and shapes,
// at its own rate and with its own rows to ingest.
func (e *serveEnv) schedule(seed int64, step int, rate float64, d time.Duration) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	// The repeated half of the queries draws from eight hot shapes of two
	// or three attributes: popular queries are simple ones, and a popular
	// five-attribute shape would alone decide the run's tail.
	var hot [][]pref
	for i := 0; i < 8; i++ {
		hot = append(hot, randomShape(rng, 2+i%2))
	}
	var jobs []serveJob
	queries := 0
	fresh := gen.NewSource(gen.AntiCorrelated, 1<<30, serveDims, seed+1+int64(step))
	for i := 0; ; i++ {
		due := time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
		if due >= d {
			return jobs
		}
		var j serveJob
		switch servePattern[i%len(servePattern)] {
		case 'S':
			j = serveJob{kind: kSkyline}
		case 'Q':
			j = e.queryJob(rng, hot)
			queries++
			j.checked = queries%checkEvery == 0
		default:
			b, _ := fresh.Next(serveBatch) // a generator source does not fail
			rows := make([][]float64, b.Len())
			for r := range rows {
				rows[r] = b.Row(r)
			}
			body, _ := json.Marshal(map[string]any{"points": rows}) // cannot fail: finite floats
			j = serveJob{kind: kIngest, body: body, batch: b}
		}
		j.due, j.set = due, rng.Intn(serveSets)
		jobs = append(jobs, j)
	}
}

// do sends one request and reads the whole response.
func (e *serveEnv) do(j serveJob) serveDone {
	d := serveDone{set: j.set, kind: j.kind}
	set := e.sets[j.set]
	var resp *http.Response
	switch j.kind {
	case kSkyline:
		resp, d.err = e.client.Get(set.url(e, "/skyline"))
	case kQuery:
		if j.checked {
			set.mu.RLock()
			defer set.mu.RUnlock()
			d.logRows, d.prefs = len(set.log)/serveDims, j.prefs
		}
		resp, d.err = e.client.Post(set.url(e, "/query"), "application/json", bytes.NewReader(j.body))
	case kIngest:
		set.mu.Lock()
		defer set.mu.Unlock()
		resp, d.err = e.client.Post(set.url(e, "/ingest"), "application/json", bytes.NewReader(j.body))
	}
	if d.err != nil {
		return d
	}
	defer resp.Body.Close()
	d.status = resp.StatusCode
	d.hit = resp.Header.Get("X-Cache") == "hit"
	var body []byte
	if body, d.err = io.ReadAll(resp.Body); d.err != nil {
		return d
	}
	d.bytes = len(body)
	if d.status != http.StatusOK {
		return d
	}
	switch {
	case j.kind == kIngest:
		set.log = append(set.log, j.batch.Data...)
	case j.checked:
		var reply struct {
			Rows []int `json:"rows"`
		}
		if d.err = json.Unmarshal(body, &reply); d.err == nil {
			d.rows = reply.Rows
		}
	}
	return d
}

var errAbandoned = errors.New("request not sent before its step had run twice its time")

// stepResult is one rate step of the open loop.
type stepResult struct {
	done                   []serveDone
	backlogMid, backlogEnd int
	allocBytes             uint64
}

// runStep replays the schedule with one goroutine per processor, each
// owning one connection: a free goroutine takes the next request, waits
// until it is due, and sends it. The backlog — requests past due and not
// yet taken — is sampled halfway and at the end. The step then drains; a
// request still not taken when the step has run twice its time is
// abandoned and counts as failed.
func (e *serveEnv) runStep(jobs []serveJob, d time.Duration, rec *recorder, run int) stepResult {
	var next atomic.Int64
	res := stepResult{done: make([]serveDone, len(jobs))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	backlog := func() int {
		i, late := int(next.Load()), 0
		for ; i < len(jobs) && jobs[i].due <= time.Since(start); i++ {
			late++
		}
		return late
	}
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if time.Since(start) > 2*d {
					res.done[i] = serveDone{set: j.set, kind: j.kind, err: errAbandoned}
					continue
				}
				time.Sleep(time.Until(start.Add(j.due)))
				id := rec.start(run, 0, serveSpans[j.kind])
				sent := time.Now()
				dn := e.do(j)
				dn.lag = sent.Sub(start.Add(j.due))
				dn.latency = time.Since(start.Add(j.due))
				rec.end(id, map[string]float64{"bytes": float64(dn.bytes), "cache_hit": b2f(dn.hit)})
				res.done[i] = dn
			}
		}()
	}
	time.Sleep(d / 2)
	res.backlogMid = backlog()
	time.Sleep(time.Until(start.Add(d)))
	res.backlogEnd = backlog()
	wg.Wait()
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	return res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// account folds a step into one role log per dataset: failures and
// refusals count against attempted, the rest feed the three roles by
// route. The step's allocation is booked on the first log.
func (s stepResult) account(logs []*opLog) {
	for _, d := range s.done {
		l := logs[d.set]
		l.attempted++
		if d.err != nil || d.status != http.StatusOK {
			l.failed++ // a 429 refusal misses any latency limit, like an error
			continue
		}
		l.ops++
		l.wire = append(l.wire, float64(d.bytes))
		switch d.kind {
		case kQuery:
			l.query.add(d.latency)
		case kSkyline:
			l.net.add(d.latency)
		case kIngest:
			l.aux.add(d.latency)
		}
	}
	logs[0].allocBytes += s.allocBytes
}

// pooled folds a step into a single role log, the datasets together.
func (s stepResult) pooled() opLog {
	logs := newLogs()
	s.account(logs)
	return mergeLogs(logs...)
}

func newLogs() []*opLog {
	logs := make([]*opLog, serveSets)
	for i := range logs {
		logs[i] = &opLog{}
	}
	return logs
}

// verify checks every kept query answer against a sequential solve over
// the rows its dataset's log held when the query ran, and each dataset's
// final skyline against a sequential solve over its whole log.
func (e *serveEnv) verify(logs []*opLog, steps []stepResult, log io.Writer) {
	for _, s := range steps {
		for _, d := range s.done {
			if d.prefs == nil || d.err != nil || d.status != http.StatusOK {
				continue
			}
			rows := e.sets[d.set].log
			proj := make([]point.Point, d.logRows)
			for i := range proj {
				row := rows[i*serveDims : (i+1)*serveDims]
				p := make(point.Point, len(d.prefs))
				for k, pf := range d.prefs {
					p[k] = row[pf.col]
					if pf.max {
						p[k] = -p[k]
					}
				}
				proj[i] = p
			}
			got := digest{n: len(d.rows)}
			for _, r := range d.rows {
				if r < 0 || r >= len(proj) {
					got.n = -1
					break
				}
				got.sum += hashRow(proj[r])
			}
			want := digestOf(seq.SB(proj, nil))
			logs[d.set].check(got == want, log, "POST /query %v on %s over %d rows returned %v, sequential solve gives %v",
				d.prefs, e.sets[d.set].name, d.logRows, got, want)
		}
	}
	for i, set := range e.sets {
		l := logs[i]
		l.attempted++
		got, err := e.finalSkyline(set)
		if err != nil {
			l.check(false, log, "final GET /skyline on %s: %v", set.name, err)
			continue
		}
		want := digestOfBlock(seq.SBBlock(point.Block{Dims: serveDims, Data: set.log}, nil))
		l.check(got == want, log, "final GET /skyline on %s returned %v, sequential solve over %d rows gives %v",
			set.name, got, len(set.log)/serveDims, want)
	}
}

func (e *serveEnv) finalSkyline(set *serveSet) (digest, error) {
	resp, err := e.client.Get(set.url(e, "/skyline"))
	if err != nil {
		return digest{}, err
	}
	defer resp.Body.Close()
	var reply struct {
		Points []point.Point `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return digest{}, err
	}
	return digestOf(reply.Points), nil
}

func runServeChurn(ctx context.Context, cfg runConfig) (*result, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	n := cfg.scaled(serveRows)
	e, setupS, err := setUp(reps, func() (*serveEnv, error) { return setUpServe(n, cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Fprintf(cfg.log, "serve-churn: %d datasets of n=%d d=%d, clients=%d, set-up %.3fs\n", serveSets, n, serveDims, e.nproc, setupS)
	// Smaller inputs answer faster; the smoke test raises the rates so its
	// short run still sends a few hundred requests.
	speed := min(1/cfg.scale, 6)
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return e.traced(cfg, speed, total)
	}
	res := newResult(endToEnd)
	step := e.runStep(e.schedule(cfg.seed, 0, serveR1*speed, total), total, nil, 0)
	logs := newLogs()
	step.account(logs)
	e.verify(logs, []stepResult{step}, cfg.log)
	if err := fill(res, cfg, serveTail, logs...); err != nil {
		return nil, err
	}
	res.set("setup_s", setupS)
	return res, nil
}

// traced runs the rate ladder — r1 for half the time, r2 and r3 for a
// quarter each — with one span per request, then times the ingest path
// below HTTP on a second dataset holding the same rows.
func (e *serveEnv) traced(cfg runConfig, speed float64, total time.Duration) (*result, error) {
	res := newResult(perLayer)
	rec := newRecorder()
	rates := []float64{serveR1 * speed, serveR2 * speed, serveR3 * speed}
	times := []time.Duration{total / 2, total / 4, total / 4}
	var steps []stepResult
	var logs []opLog // one per step, the datasets pooled
	checks := newLogs()
	for i, rate := range rates {
		s := e.runStep(e.schedule(cfg.seed, i, rate, times[i]), times[i], rec, i)
		steps, logs = append(steps, s), append(logs, s.pooled())
	}
	e.verify(checks, steps, cfg.log)
	checked := mergeLogs(checks...)
	res.attempted, res.failed = checked.attempted, checked.failed
	for _, l := range logs {
		res.attempted, res.failed = res.attempted+l.attempted, res.failed+l.failed
	}

	var hit, miss, lag series
	rejected := 0
	for _, d := range steps[0].done {
		lag.add(d.lag)
		switch {
		case d.status == http.StatusTooManyRequests:
			rejected++
		case d.kind == kQuery && d.hit:
			hit.add(d.latency)
		case d.kind == kQuery:
			miss.add(d.latency)
		}
	}
	r1 := logs[0]
	res.set("server.skyline_p50_ms", r1.net.median())
	res.set("server.query_hit_p50_ms", hit.median())
	res.set("server.query_miss_p50_ms", miss.median())
	res.set("server.cache_hit_frac", float64(len(hit))/float64(max(len(hit)+len(miss), 1)))
	res.set("server.rejected_frac", float64(rejected)/float64(max(len(steps[0].done), 1)))
	res.set("server.gen_lag_p90_ms", lag.quantile(0.9))
	res.set("server.backlog_end", float64(steps[len(steps)-1].backlogEnd))
	// The highest rate up to which every step's query tail meets the
	// limit, with nothing failed and a backlog that did not grow over the
	// step's second half (a backlog of one request per connection is just
	// the requests in flight at that instant).
	best, ok := 0.0, true
	for i, l := range logs {
		p90 := l.query.quantile(serveTail)
		res.set(fmt.Sprintf("server.r%d_query_p90_ms", i+1), p90)
		ok = ok && p90 <= serveLimitMS && l.failed == 0 && steps[i].backlogEnd <= max(steps[i].backlogMid, e.nproc)
		if ok {
			best = rates[i]
		}
	}
	res.set("server.max_rate_ok", best)

	// The same ingest batches, below HTTP: through Service.Ingest on a
	// second dataset, and through a bare maintain.Maintainer.
	base := e.sets[0].base
	mins, maxs, err := base.Bounds()
	if err != nil {
		return nil, err
	}
	probe, err := e.svc.CreateDataset(server.DatasetSpec{Name: "probe", Attrs: e.attrs, Bits: 16, Mins: mins, Maxs: maxs})
	if err != nil {
		return nil, err
	}
	m, err := maintain.New(serveDims, 16, mins, maxs)
	if err != nil {
		return nil, err
	}
	baseBlk := point.BlockOf(serveDims, base.Points)
	if _, err := e.svc.Ingest(probe, baseBlk); err != nil {
		return nil, err
	}
	if _, err := m.InsertBlock(baseBlk); err != nil {
		return nil, err
	}
	var direct, bare series
	for _, j := range e.schedule(cfg.seed, 0, rates[0], times[0]) {
		if j.kind != kIngest {
			continue
		}
		id := rec.start(len(rates), 0, "server.engine_ingest")
		t0 := time.Now()
		_, err := e.svc.Ingest(probe, j.batch)
		direct.add(time.Since(t0))
		rec.end(id, map[string]float64{"rows": float64(j.batch.Len())})
		if err != nil {
			return nil, err
		}
		id = rec.start(len(rates), 0, "maintain.insert_block")
		t0 = time.Now()
		_, err = m.InsertBlock(j.batch)
		bare.add(time.Since(t0))
		rec.end(id, map[string]float64{"rows": float64(j.batch.Len())})
		if err != nil {
			return nil, err
		}
	}
	res.set("server.engine_ingest_ms", direct.median())
	res.set("server.http_overhead_ms", r1.aux.median()-direct.median())
	res.set("maintain.insert_us_per_row", 1e3*bare.median()/serveBatch)

	// Tracing here is one span per request on the client side, so its
	// overhead is taken against an untraced replay of the r1 schedule.
	pl := e.runStep(e.schedule(cfg.seed, len(rates), rates[0], times[1]), times[1], nil, 0).pooled()
	res.attempted, res.failed = res.attempted+pl.attempted, res.failed+pl.failed
	if len(pl.query) > 0 {
		res.set("bench.trace_overhead_frac", r1.query.median()/pl.query.median()-1)
	}

	if _, err := probeKernels(rec, res, base.Points, serveDims, e.nproc, cfg.seed); err != nil {
		return nil, err
	}
	return res, finishTrace(rec, cfg, "serve-churn")
}
