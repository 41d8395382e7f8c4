package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// run length and the metrics a run prints, by name and unit.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	return &bf, json.Unmarshal(data, &bf)
}

// runChild runs this binary on one workload and returns its result line.
func runChild(args ...string) (*result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if err != nil {
		return nil, stderr.String(), err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, stderr.String(), fmt.Errorf("result line: %w", err)
	}
	return &res, stderr.String(), nil
}

// steadyMain runs workloads k times each with seeds seed0, seed0+1, …
// and prints, per end-to-end metric, the median, the quartiles and the
// spread (Q3−Q1)/median beside the metric's bound. With --workload all
// the workloads are interleaved: run i of every workload comes before
// run i+1 of any, so a slow phase of the host falls on all of them.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	which := fs.String("workload", "all", "workload name or all")
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Uint64("seed0", 1, "seed of the first run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if *which == "all" || *which == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "steady: unknown workload %q\n", *which)
		return 2
	}
	values := map[string]map[string][]float64{}
	failedShare := map[string][]string{}
	for i := 0; i < *runs; i++ {
		for _, w := range names {
			seed := *seed0 + uint64(i)
			res, stderr, err := runChild("--workload", w, "--seed", fmt.Sprint(seed), "--trace", "0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n%s", w, seed, err, stderr)
				return 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			var line []string
			for _, m := range bf.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[w][m.Name] = append(values[w][m.Name], v)
				line = append(line, fmt.Sprintf("%s=%.6g", m.Name, v))
			}
			failedShare[w] = append(failedShare[w], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Printf("run %2d %-15s seed %-3d attempted %-5d failed %d  %s\n", i+1, w, seed,
				res.Attempted, res.Failed, strings.Join(line, " "))
		}
	}
	ok := true
	for _, w := range names {
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %d s each; failed/attempted %s\n",
			w, *runs, *seed0, *seed0+uint64(*runs)-1, bf.RunSeconds, strings.Join(failedShare[w], " "))
		fmt.Printf("  %-12s %-7s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "median", "Q1", "Q3", "spread", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[w][m.Name])
			spread := (q3 - q1) / q2
			verdict := "ok (< bound/3)"
			switch {
			case spread > m.Bound:
				verdict = "UNSTEADY"
				ok = false
			case spread > m.Bound/3:
				verdict = "within bound, above bound/3"
			}
			fmt.Printf("  %-12s %-7s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s\n", m.Name, m.Unit, q2, q1, q3,
				100*spread, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// summaryMain turns a traced run's span file into per-layer self times,
// prints the per-layer metrics with their bases, and, given untraced
// result lines of the same workload, the tracing overhead.
func summaryMain(args []string) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	file := fs.String("trace-file", "", "span file written by a --trace 1 run")
	untraced := fs.String("untraced", "", "file of untraced result lines of the same workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "summary:", err)
		return 1
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintln(os.Stderr, "summary:", err)
		return 1
	}
	self := selfTimes(tf.Spans)
	calls := map[string]int{}
	ops := map[int64]bool{}
	var opTime float64
	for _, s := range tf.Spans {
		calls[s.Name]++
		if s.Name == "op" {
			ops[s.Op] = true
			opTime += float64(s.End-s.Start) / 1e9
		}
	}
	fmt.Printf("%s seed %d, %g s window: %d spans, %d ops, %.4f s of op time\n\n",
		tf.Workload, tf.Seed, tf.Seconds, len(tf.Spans), len(ops), opTime)
	fmt.Printf("%-28s %7s %12s %12s %9s\n", "span", "calls", "self s", "self s/op", "% of op")
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("%-28s %7d %12.6f %12.6f %8.2f%%\n", n, calls[n], self[n], self[n]/float64(len(ops)),
			pct(self[n], opTime))
	}
	fmt.Println("\n(\"op\" self time is the op's time outside every layer call; spans other than op")
	fmt.Println("and its children are the traced run's separate layer calls, made between ops.)")

	fmt.Printf("\nper-layer metrics (%% figures: base = %.4f s of traced op time", opTime)
	if tf.Workload == "serve-mix" {
		fmt.Print("; serve.direct_write_pct: base = mean cold request latency; serve.hit_ratio: base = submissions in the window")
	}
	fmt.Println("):")
	var layers []string
	for k, v := range tf.Layer {
		if v != 0 {
			layers = append(layers, k)
		}
	}
	sort.Strings(layers)
	for _, k := range layers {
		fmt.Printf("  %-30s %14.6g\n", k, tf.Layer[k])
	}
	fmt.Println("\ntraced end-to-end figures:")
	var keys []string
	for k := range tf.E2E {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-16s %.6g\n", k, tf.E2E[k])
	}
	if *untraced == "" {
		return 0
	}
	f, err := os.Open(*untraced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "summary:", err)
		return 1
	}
	defer f.Close()
	var base []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var res result
		if json.Unmarshal(sc.Bytes(), &res) == nil && res.Metrics["op_p50_s"].Value > 0 {
			base = append(base, res.Metrics["op_p50_s"].Value)
		}
	}
	if len(base) == 0 {
		fmt.Fprintln(os.Stderr, "summary: no untraced result lines in", *untraced)
		return 1
	}
	u := median(base)
	fmt.Printf("\ntracing overhead: traced op_p50_s %.6g s vs untraced %.6g s (median of %d runs): %+.2f%% (base: untraced op_p50_s)\n",
		tf.E2E["op_p50_s"], u, len(base), pct(tf.E2E["op_p50_s"]-u, u))
	return 0
}

// selftestMain shows that every check can fail: each workload runs at a
// tiny size once clean (it must pass) and once with one corrupted input
// (it must exit nonzero with a failed check).
func selftestMain(args []string) int {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cases := []struct{ workload, corrupt, what string }{
		{"paper-validate", "", "clean"},
		{"paper-validate", "tau", "expected τ off by one"},
		{"gen-ingest", "", "clean"},
		{"gen-ingest", "shard", "one flipped arc in a written shard"},
		{"serve-mix", "", "clean"},
		{"serve-mix", "served", "one altered byte in a served result"},
	}
	ok := true
	for _, c := range cases {
		for _, trace := range []string{"0", "1"} {
			if c.corrupt != "" && trace == "1" {
				continue
			}
			args := []string{"--workload", c.workload, "--seed", "3", "--seconds", "1", "--small", "--trace", trace}
			if c.corrupt != "" {
				args = append(args, "--corrupt", c.corrupt)
			}
			res, stderr, err := runChild(args...)
			var got string
			pass := false
			switch {
			case c.corrupt == "" && err == nil:
				got, pass = fmt.Sprintf("exit 0, correct=%v, %d metrics", res.Correct, len(res.Metrics)), res.Correct
			case c.corrupt == "":
				got = fmt.Sprintf("%v: %s", err, lastLine(stderr))
			case err == nil:
				got = "exit 0: the corruption went unnoticed"
			default:
				got = fmt.Sprintf("%v: %s", err, lastLine(stderr))
				pass = strings.Contains(stderr, "check failed")
			}
			verdict := "PASS"
			if !pass {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-4s %-15s trace=%s %-38s %s\n", verdict, c.workload, trace, c.what, got)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
