package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed layer call: its name, the op it belongs to, the span
// that caused it (0 = none) and its interval in ns since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times calls and, when on, keeps one span per call in memory;
// spans are written out once, when the run ends. Client goroutines of
// serve-mix record concurrently, hence the mutex.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int) (int, time.Time) {
	now := time.Now()
	if !t.on {
		return 0, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: now.Sub(t.t0).Nanoseconds()})
	return len(t.spans), now
}

// end closes span id and returns the call's duration in seconds.
func (t *tracer) end(id int, start time.Time) float64 {
	now := time.Now()
	if t.on && id > 0 {
		t.mu.Lock()
		t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return now.Sub(start).Seconds()
}

// call times f as span name under parent and returns its duration.
func (t *tracer) call(name string, op int64, parent int, f func() error) (float64, error) {
	id, start := t.begin(name, op, parent)
	err := f()
	d := t.end(id, start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// traceFile is what a traced run writes: the spans plus the per-layer
// and end-to-end figures the run derived from them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Layer    map[string]float64 `json:"per_layer"`
	E2E      map[string]float64 `json:"end_to_end"`
	Spans    []span             `json:"spans"`
}

// write stores the spans in .bench_build/trace/<workload>-seed<n>.json.
func (t *tracer) write(cfg config, layer, e2e map[string]float64) error {
	p := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{cfg.workload, cfg.seed, cfg.seconds, layer, e2e, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(t.spans), p)
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// cpuSelf returns the CPU seconds (user + system) this process has used.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads the peak resident set size (VmHWM) of process pid
// ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuOf returns the CPU seconds process pid has used, from
// /proc/pid/stat (utime + stime, in USER_HZ = 100 ticks per second).
func cpuOf(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// cpuMask is a CPU affinity mask (room for 1024 CPUs).
type cpuMask [16]uint64

// affinity returns the CPUs this process may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m),
		uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// highest returns the mask of m's highest-numbered CPU alone.
func (m cpuMask) highest() cpuMask {
	var one cpuMask
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	return one
}

// bindThreads binds every thread of this process to the CPUs of m;
// threads and child processes started later inherit the binding.
func bindThreads(m cpuMask) error {
	// A thread started while the others are being bound may inherit the
	// old mask, so repeat until a pass finds no thread left to bind.
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		bound := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m),
				uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
			done[tid] = true
			bound++
		}
		if bound == 0 {
			return nil
		}
	}
}
