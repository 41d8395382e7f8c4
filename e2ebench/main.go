// Command e2ebench is kronvalid's end-to-end benchmark. It runs one named
// workload from a seed, times every call into the kronvalid package (and,
// for the service, every HTTP request to a genserve child process) from
// outside the program, checks the outputs, and prints one JSON result
// line:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the same workload runs with a span recorded around every layer call,
// and the metrics are the per-layer ones (the spans are written to
// .bench_build/trace/). Further subcommands:
//
//	e2ebench steady   --workload W|all --runs K   steadiness report
//	e2ebench summary  --trace-file F [--untraced F2]  per-layer self times
//	e2ebench selftest                             every check can fail
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool   // selftest size: seconds-long runs on tiny inputs
	corrupt  string // selftest: feed one check one corrupted input
}

// bench is the state every workload shares: its configuration, the
// tracer, a scratch directory, the figures it reports and the checks it
// has failed.
type bench struct {
	cfg      config
	tr       *tracer
	dir      string  // scratch directory inside .bench_build
	binDir   string  // where genserve was built
	procs    int     // the host's GOMAXPROCS, before measuring on one thread
	cpus     cpuMask // the CPUs the process may run on, before measuring on one
	e2e      map[string]float64
	layer    map[string]float64
	ops      int64
	failures []string
}

// check records a failed check; any failure makes the run exit nonzero.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// atProcs runs f on the host's procs threads and CPUs, and returns the
// process to one thread and one CPU after it.
func (b *bench) atProcs(f func() error) error {
	if err := bindThreads(b.cpus); err != nil {
		return err
	}
	runtime.GOMAXPROCS(b.procs)
	err := f()
	runtime.GOMAXPROCS(1)
	return firstErr(err, bindThreads(b.cpus.highest()))
}

// deadline reports whether the measuring window that started at t0 is
// over; workloads test it only between whole rounds.
func (b *bench) deadline(t0 time.Time) bool {
	return time.Since(t0).Seconds() >= b.cfg.seconds
}

type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"paper-validate", runPaperValidate},
	{"gen-ingest", runGenIngest},
	{"serve-mix", runServeMix},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		case "selftest":
			os.Exit(selftestMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper-validate, gen-ingest or serve-mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", float64(bf.RunSeconds), "length of the measuring window (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 = record spans and print the per-layer metrics")
	fs.BoolVar(&cfg.small, "small", false, "tiny inputs (used by selftest)")
	fs.StringVar(&cfg.corrupt, "corrupt", "", "feed one check a corrupted input: tau, shard or served (used by selftest)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		return 2
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(tmp, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// Every workload measures on one thread and one CPU (genserve too).
	// On a host whose CPUs are shared with other machines, work split
	// over two threads waits for whichever thread lost its CPU: in one
	// phase of such load the two-thread ops grew by 32% (gen-ingest) and
	// 63% (serve-mix) while one-thread paper-validate grew by 13%, so
	// two-thread wall times could not be compared between runs. On one
	// CPU the threads of one thread's work (the Go runtime's; genserve's
	// beside the client's) hand over without waking another vCPU, which
	// on a shared host waits until the host runs that vCPU again. The
	// traced gen-ingest run still measures the stream at procs workers.
	cpus, err := affinity()
	if err == nil {
		err = bindThreads(cpus.highest())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b := &bench{
		cfg:    cfg,
		tr:     newTracer(cfg.trace),
		dir:    dir,
		binDir: filepath.Dir(exe),
		procs:  runtime.GOMAXPROCS(1),
		cpus:   cpus,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
	}
	if err := w.run(context.Background(), b); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if len(b.failures) > 0 {
		for _, f := range b.failures {
			fmt.Fprintln(os.Stderr, "e2ebench: check failed:", f)
		}
		return 1
	}
	var figures []string
	for k, v := range b.e2e {
		figures = append(figures, fmt.Sprintf("%s=%.6g", k, v))
	}
	sort.Strings(figures)
	fmt.Fprintln(os.Stderr, "e2ebench: figures:", strings.Join(figures, " "))
	res := result{Correct: true, Attempted: b.ops, Metrics: map[string]metric{}}
	// The metrics are the ones BENCHMARK.json lists. A layer the workload
	// does not call reads 0; an end-to-end metric must have been measured.
	if cfg.trace {
		for _, m := range bf.PerLayer {
			res.Metrics[m.Name] = metric{b.layer[m.Name], m.Unit}
		}
		if err := b.tr.write(cfg, b.layer, b.e2e); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
	} else {
		for _, m := range bf.EndToEnd {
			v, ok := b.e2e[m.Name]
			if !ok || v <= 0 {
				fmt.Fprintf(os.Stderr, "e2ebench: metric %s not measured\n", m.Name)
				return 1
			}
			res.Metrics[m.Name] = metric{v, m.Unit}
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// timedSetup runs setup reps times and records the median duration as
// setup_s. Every run but the last is passed to teardown (untimed); the
// last one's state is returned. Set-ups of a few tens of ms swing by
// several percent from run to run; the median over repeats holds within
// the metric's bound.
func timedSetup[T any](b *bench, reps int, setup func() (T, error), teardown func(T) error) (T, error) {
	var ds []float64
	for i := 1; ; i++ {
		runtime.GC()
		t := time.Now()
		st, err := setup()
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t).Seconds())
		if i == reps {
			b.e2e["setup_s"] = median(ds)
			return st, nil
		}
		if teardown != nil {
			if err := teardown(st); err != nil {
				return st, fmt.Errorf("setup: %w", err)
			}
		}
	}
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 with the method of Python's
// statistics.quantiles(data, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// pct is part as a percentage of whole (0 when whole is 0).
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
