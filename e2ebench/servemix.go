package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	kv "kronvalid"
)

// Serve-mix shape: each client round is hotPerRound requests spread over
// the hot specs plus coldPerRound never-seen specs, in a seeded order.
const (
	hotSpecs     = 4
	hotPerRound  = 8
	coldPerRound = 2
	clients      = 1 // closed loop: one connection per client
	coldCheckGap = 4 // every 4th cold download is checked against an in-process Digest
	coldSlots    = 8 // cache budget beyond the hot set, in entries
	// genserve keeps its last 4096 finished jobs queryable, so its
	// memory grows with every request until that history is full; a
	// warm-up of as many submissions fills it before the window, and the
	// peak RSS no longer depends on how many requests a run makes.
	jobHistory = 4096
)

// server is a genserve child process.
type server struct {
	cmd     *exec.Cmd
	url     string
	dir     string // cache directory
	hc      *http.Client
	stopped bool
	waitErr error
}

func startServer(ctx context.Context, bin, cacheDir string, budget int64) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache", cacheDir,
		"-cache-bytes", strconv.FormatInt(budget, 10), "-workers", "1", "-gen-workers", "1")
	// One thread, like the benchmark process (see runMain).
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, dir: cacheDir, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}}
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := s.hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(start) > 20*time.Second || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("genserve did not come up on %s: %v", addr, err)
		}
	}
}

// stop sends SIGTERM (genserve drains and exits) and waits for the
// process; it kills it if the drain takes longer than 20 s. Calls after
// the first return the first one's result.
func (s *server) stop() error {
	if s.stopped {
		return s.waitErr
	}
	s.stopped = true
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case s.waitErr = <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		s.waitErr = <-done
	}
	return s.waitErr
}

type jobView struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error"`
}

func (s *server) submit(spec string) (jobView, error) {
	var v jobView
	body, _ := json.Marshal(map[string]string{"spec": spec, "format": "binary"})
	resp, err := s.hc.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return v, fmt.Errorf("submit %s: %s: %s", spec, resp.Status, msg)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func (s *server) wait(id string) (jobView, error) {
	var v jobView
	resp, err := s.hc.Get(s.url + "/v1/jobs/" + id + "?wait=50s")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, err
	}
	if v.State != "done" {
		return v, fmt.Errorf("job %s is %s: %s", id, v.State, v.Error)
	}
	return v, nil
}

// download reads the job's full result into buf and returns the arc
// count the server announces for it.
func (s *server) download(id string, buf *bytes.Buffer) (int64, error) {
	buf.Reset()
	resp, err := s.hc.Get(s.url + "/v1/jobs/" + id + "/result")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("result %s: %s", id, resp.Status)
	}
	arcs, err := strconv.ParseInt(resp.Header.Get("X-Genserve-Arcs"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("result %s: arc count header: %w", id, err)
	}
	_, err = buf.ReadFrom(resp.Body)
	return arcs, err
}

// metrics reads the /metrics counters.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.hc.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[strings.TrimPrefix(f[0], "genserve_")] = v
		}
	}
	return out, sc.Err()
}

// request is the record of one timed request.
type request struct {
	hot                    bool
	spec                   string
	submit, wait, download float64
	latency, jobMS         float64
	arcs                   int64
	digest                 string // benchmark-side digest of a checked cold download
	checked                bool
}

// runServeMix drives a genserve child with a closed loop of clients,
// each sending rounds of hot (cache-resident) and cold (never-seen)
// rmat requests, every one submitted and downloaded in full.
func runServeMix(ctx context.Context, b *bench) error {
	seed := b.cfg.seed
	scale, edges := 14, 131072
	if b.cfg.small {
		scale, edges = 10, 4096
	}
	spec := func(s uint64) string { return fmt.Sprintf("rmat:scale=%d,edges=%d,seed=%d", scale, edges, s) }
	hot := make([]string, hotSpecs)
	hotRef := map[string][]byte{}
	var hotBytes, maxEntry int64
	// Expected bodies of the hot specs, made in-process before set-up.
	for i := range hot {
		hot[i] = spec(seed*16 + uint64(i))
		g, err := kv.NewGenerator(hot[i])
		if err != nil {
			return err
		}
		src := kv.ModelSource(g, 0)
		var sink binarySink
		if _, err := kv.Stream(ctx, src, &sink); err != nil {
			return err
		}
		want, err := kv.Digest(ctx, src)
		if err != nil {
			return err
		}
		d := newArcDigest(src.NumVertices(), int64(len(sink.buf)/16))
		if err := digestBinary(d, bytes.NewReader(sink.buf)); err != nil {
			return err
		}
		b.check("hot reference digest", d.sum() == want && d.bad == "", "%s vs Digest %s (%s)", d.sum(), want, d.bad)
		hotRef[hot[i]] = sink.buf
		size := int64(len(sink.buf)) + 4096 // + manifest
		hotBytes += size
		maxEntry = max(maxEntry, size)
	}
	budget := hotBytes + coldSlots*maxEntry

	bin := filepath.Join(b.binDir, "genserve")
	var setups int
	srv, err := timedSetup(b, 9, func() (*server, error) {
		setups++
		s, err := startServer(ctx, bin, filepath.Join(b.dir, fmt.Sprintf("cache%d", setups)), budget)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for _, h := range hot {
			v, err := s.submit(h)
			if err == nil && v.State != "done" {
				v, err = s.wait(v.ID)
			}
			if err == nil {
				_, err = s.download(v.ID, &buf)
			}
			if err != nil {
				s.stop()
				return nil, err
			}
		}
		return s, nil
	}, func(s *server) error {
		if err := s.stop(); err != nil {
			return fmt.Errorf("stop genserve: %w", err)
		}
		return os.RemoveAll(s.dir)
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	for i := 0; i < jobHistory; i++ {
		v, err := srv.submit(hot[i%hotSpecs])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		b.check("warm-up submission is a finished cache hit", v.State == "done" && v.Cached, "%s: %+v", hot[i%hotSpecs], v)
	}

	m0, err := srv.metrics()
	if err != nil {
		return err
	}
	cpu0, err := cpuOf(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var opCounter atomic.Int64
	var mu sync.Mutex
	var reqs []request
	var runErr error
	var roundRates []float64 // per round: arcs downloaded per second of its requests
	corruptOnce := b.cfg.corrupt == "served"
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			var buf bytes.Buffer
			var mine []request
			var rates []float64
			colds := 0
			for !b.deadline(t0) {
				round := make([]string, 0, hotPerRound+coldPerRound)
				for i := 0; i < hotPerRound; i++ {
					round = append(round, hot[i%hotSpecs])
				}
				for i := 0; i < coldPerRound; i++ {
					round = append(round, "")
				}
				rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
				var rArcs, rLat float64
				for _, sp := range round {
					r := request{hot: sp != "", spec: sp}
					if !r.hot {
						r.spec = spec(1_000_000_000 + seed*100_000 + uint64(c)*50_000 + uint64(colds))
						r.checked = colds%coldCheckGap == 0
						colds++
					}
					if err := serveOne(b, srv, &r, opCounter.Add(1), &buf); err != nil {
						mu.Lock()
						runErr = firstErr(runErr, err)
						mu.Unlock()
						return
					}
					rArcs += float64(r.arcs)
					rLat += r.latency
					// Checks, outside the timed request.
					body := buf.Bytes()
					if r.hot {
						mu.Lock()
						if corruptOnce {
							corruptOnce = false
							body = append([]byte(nil), body...)
							body[len(body)/2] ^= 1
						}
						mu.Unlock()
						b.checkSync(&mu, "hot download equals the in-process stream", bytes.Equal(body, hotRef[r.spec]),
							"%s: %d bytes differ from the %d-byte reference", r.spec, len(body), len(hotRef[r.spec]))
					} else {
						b.checkSync(&mu, "cold download is 16 B per arc", int64(len(body)) == 16*r.arcs,
							"%s: %d bytes for %d arcs", r.spec, len(body), r.arcs)
						if r.checked {
							d := newArcDigest(1<<scale, int64(len(body)/16))
							if err := digestBinary(d, bytes.NewReader(body)); err != nil {
								b.checkSync(&mu, "cold download decodes", false, "%v", err)
							}
							r.digest = d.sum()
							b.checkSync(&mu, "cold download sorted, in range, duplicate-free", d.bad == "", "%s", d.bad)
						}
					}
					mine = append(mine, r)
				}
				rates = append(rates, rArcs/rLat)
			}
			mu.Lock()
			reqs = append(reqs, mine...)
			roundRates = append(roundRates, rates...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	cpu1, err := cpuOf(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	m1, err := srv.metrics()
	if err != nil {
		return err
	}
	if err := recordPeakRSS(b, strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop genserve: %w", err)
	}

	// Counter identity: every submission of this server's life is a hit,
	// a miss or a dedup (set-up primed hotSpecs of them, and the warm-up
	// made jobHistory more).
	submitted := float64(hotSpecs + jobHistory + len(reqs))
	b.check("/metrics hits + misses + dedups = submissions",
		m1["cache_hits_total"]+m1["cache_misses_total"]+m1["dedup_total"] == submitted,
		"%v + %v + %v ≠ %v", m1["cache_hits_total"], m1["cache_misses_total"], m1["dedup_total"], submitted)

	var lat, hotLat, coldLat []float64
	var served, hotArcs, coldArcs, submitS, waitS, downS, jobS, coldS float64
	var checkedColds []request
	for _, r := range reqs {
		lat = append(lat, r.latency)
		served += float64(r.arcs)
		submitS += r.submit
		waitS += r.wait
		downS += r.download
		if r.hot {
			hotLat = append(hotLat, r.latency)
			hotArcs += float64(r.arcs)
		} else {
			coldLat = append(coldLat, r.latency)
			coldArcs += float64(r.arcs)
			jobS += r.jobMS / 1000
			coldS += r.latency
			if r.checked {
				checkedColds = append(checkedColds, r)
			}
		}
	}
	b.ops = int64(len(reqs))
	b.e2e["op_p50_s"] = median(lat)
	// Arcs downloaded per second of request time, median over rounds. A
	// round's two cold requests take most of its time, so this rate
	// follows the cold path (generate, commit, evict) that op_p50_s, a
	// median over mostly hot requests, hides; checks are left out.
	b.e2e["arcs_per_s"] = median(roundRates)
	b.e2e["cpu_s"] = (cpu1 - cpu0) / float64(len(reqs))
	b.e2e["hot_p50_s"] = median(hotLat)
	b.e2e["cold_p50_s"] = median(coldLat)
	for name, v := range tails("hot", hotLat) {
		b.e2e[name] = v
	}
	for name, v := range tails("cold", coldLat) {
		b.e2e[name] = v
	}

	// Checked cold downloads against in-process Count and Digest; the
	// traced run also times an in-process WriteShards of the same spec.
	var direct float64
	for i, r := range checkedColds {
		g, err := kv.NewGenerator(r.spec)
		if err != nil {
			return err
		}
		src := kv.ModelSource(g, 0)
		n, err := kv.Count(ctx, src)
		if err != nil {
			return err
		}
		want, err := kv.Digest(ctx, src)
		if err != nil {
			return err
		}
		b.check("cold download arc count = Count", n == r.arcs, "%s: %d arcs, Count %d", r.spec, r.arcs, n)
		b.check("cold download digest = Digest", r.digest == want, "%s: %s, Digest %s", r.spec, r.digest, want)
		if b.cfg.trace {
			dir := filepath.Join(b.dir, fmt.Sprintf("direct%d", i))
			d, err := b.tr.call("serve.direct_write", 0, 0, func() error {
				_, err := kv.WriteShards(ctx, dir, src, kv.WithBinary(true))
				return err
			})
			if err != nil {
				return err
			}
			direct += d
			os.RemoveAll(dir)
		}
	}

	if b.cfg.trace {
		base := sum(lat)
		b.layer["serve.submit_pct"] = pct(submitS, base)
		b.layer["serve.wait_pct"] = pct(waitS, base)
		b.layer["serve.download_pct"] = pct(downS, base)
		b.layer["serve.job_pct"] = pct(jobS, base)
		if len(checkedColds) > 0 {
			b.layer["serve.direct_write_pct"] = pct(direct/float64(len(checkedColds)), coldS/float64(len(coldLat)))
		}
		dSub := m1["submits_total"] - m0["submits_total"]
		b.layer["serve.hit_ratio"] = (m1["cache_hits_total"] - m0["cache_hits_total"]) / dSub
		b.layer["serve.evictions"] = m1["evictions_total"] - m0["evictions_total"]
		b.layer["serve.arcs_generated"] = m1["arcs_generated_total"] - m0["arcs_generated_total"]
		b.layer["serve.bytes_served"] = m1["bytes_served_total"] - m0["bytes_served_total"]
		b.layer["serve.hot_arcs_per_s"] = hotArcs / sum(hotLat)
		b.layer["serve.cold_arcs_per_s"] = coldArcs / coldS
	}
	return nil
}

// serveOne times one request: submit, wait until done (cold), download.
func serveOne(b *bench, srv *server, r *request, op int64, buf *bytes.Buffer) error {
	opID, opStart := b.tr.begin("op", op, 0)
	var v jobView
	var err error
	r.submit, err = b.tr.call("serve.submit", op, opID, func() (err error) { v, err = srv.submit(r.spec); return })
	if err != nil {
		return err
	}
	if v.State != "done" {
		r.wait, err = b.tr.call("serve.wait", op, opID, func() (err error) { v, err = srv.wait(v.ID); return })
		if err != nil {
			return err
		}
	}
	r.download, err = b.tr.call("serve.download", op, opID, func() (err error) {
		r.arcs, err = srv.download(v.ID, buf)
		return
	})
	if err != nil {
		return err
	}
	r.latency = b.tr.end(opID, opStart)
	r.jobMS = v.ElapsedMS
	return nil
}

// checkSync is check for client goroutines.
func (b *bench) checkSync(mu *sync.Mutex, name string, ok bool, format string, args ...any) {
	if ok {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	b.check(name, ok, format, args...)
}

// tails returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, named <class>_pNN_s.
func tails(class string, xs []float64) map[string]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90} {
		beyond := len(s) * (100 - p) / 100
		if beyond >= 10 {
			return map[string]float64{fmt.Sprintf("%s_p%d_s", class, p): s[len(s)-1-beyond]}
		}
	}
	return nil
}
