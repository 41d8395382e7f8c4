package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	kv "kronvalid"
)

// ingestSource is one gen-ingest source with its reference arc count
// and digest from a single-worker pass.
type ingestSource struct {
	kind     string // "kron", "rmat" or "rgg2d"
	src      kv.Source
	a, b     *kv.Graph // the factors of the kron source
	refArcs  int64
	refDigst string
}

// ingestTimes accumulates one source kind's figures over a run: "arcs",
// "bytes" (shard bytes written), the op paths "text", "binary" and
// "csr", and the traced run's separate passes (see ingestLayers).
type ingestTimes map[string]float64

// runGenIngest sends each source of a fixed cycle (a web⊗web Kronecker
// product, rmat, rgg2d) through WriteShards as text, WriteShards as
// binary, and ToCSR. One op is one cycle: the three sources cost
// different amounts, so a median over single sources would pick one
// source's time.
func runGenIngest(ctx context.Context, b *bench) error {
	seed := b.cfg.seed
	nA, nB := 1000, 300
	rmatSpec := fmt.Sprintf("rmat:scale=20,edges=10000000,seed=%d", seed)
	rggSpec := fmt.Sprintf("rgg2d:n=1000000,r=0.0025,seed=%d", seed)
	if b.cfg.small {
		nA, nB = 60, 30
		rmatSpec = fmt.Sprintf("rmat:scale=12,edges=30000,seed=%d", seed)
		rggSpec = fmt.Sprintf("rgg2d:n=20000,r=0.01,seed=%d", seed)
	}
	// Set-up builds the sources and makes the reference count of each
	// at one worker.
	srcs, err := timedSetup(b, 3, func() ([]*ingestSource, error) {
		fa := kv.WebGraph(nA, 3, 0.75, seed+10)
		fb := kv.WebGraph(nB, 3, 0.75, seed+11)
		p, err := kv.NewProduct(fa, fb)
		if err != nil {
			return nil, err
		}
		// procs shards, so the traced run's pass at procs workers has
		// one shard per worker; the ops run them on one thread.
		out := []*ingestSource{{kind: "kron", src: kv.ProductSource(p, b.procs), a: fa, b: fb}}
		for _, spec := range []string{rmatSpec, rggSpec} {
			g, err := kv.NewGenerator(spec)
			if err != nil {
				return nil, err
			}
			kind, _, _ := strings.Cut(spec, ":")
			out = append(out, &ingestSource{kind: kind, src: kv.ModelSource(g, b.procs)})
		}
		for _, s := range out {
			if s.refArcs, err = kv.Count(ctx, s.src, kv.WithWorkers(1)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}, nil)
	if err != nil {
		return err
	}
	// Reference digests at one worker, before the window.
	for _, s := range srcs {
		if s.refDigst, err = kv.Digest(ctx, s.src, kv.WithWorkers(1)); err != nil {
			return err
		}
	}

	times := map[string]ingestTimes{}
	var opS, roundRate, roundCPU []float64 // per cycle
	textDir, binDir := filepath.Join(b.dir, "text"), filepath.Join(b.dir, "binary")
	t0 := time.Now()
	for round := 0; round == 0 || !b.deadline(t0); round++ {
		var rArcs, rTime, rCPU, rText, rBinary, rCSR float64
		op := b.ops + 1
		for _, s := range srcs {
			if err := firstErr(os.RemoveAll(textDir), os.RemoveAll(binDir)); err != nil {
				return err
			}
			// Freed memory goes back to the OS between sources, so each
			// source's allocations start from the same state and the
			// process's peak RSS does not depend on heap fragmentation.
			debug.FreeOSMemory()
			c0 := cpuSelf()
			opID, opStart := b.tr.begin("op", op, 0)
			var mT, mB *kv.ShardManifest
			var g *kv.CSRGraph
			dT, err := b.tr.call("ingest.text", op, opID, func() (err error) {
				mT, err = kv.WriteShards(ctx, textDir, s.src)
				return
			})
			if err != nil {
				return err
			}
			dB, err := b.tr.call("ingest.binary", op, opID, func() (err error) {
				mB, err = kv.WriteShards(ctx, binDir, s.src, kv.WithBinary(true))
				return
			})
			if err != nil {
				return err
			}
			dC, err := b.tr.call("ingest.csr", op, opID, func() (err error) {
				g, err = kv.ToCSR(ctx, s.src)
				return
			})
			if err != nil {
				return err
			}
			d := b.tr.end(opID, opStart)
			rCPU += cpuSelf() - c0
			rTime += d
			t := times[s.kind]
			if t == nil {
				t = ingestTimes{}
				times[s.kind] = t
			}
			t["arcs"] += float64(s.refArcs)
			t["text"] += dT
			t["binary"] += dB
			t["csr"] += dC
			rArcs += float64(s.refArcs)
			rText += dT
			rBinary += dB
			rCSR += dC

			written, err := checkIngest(b, s, textDir, binDir, mT, mB, g)
			if err != nil {
				return err
			}
			t["bytes"] += float64(written)
			g = nil
			if b.cfg.trace {
				if err := ingestLayers(ctx, b, op, s, t); err != nil {
					return err
				}
			}
		}
		b.ops++
		opS = append(opS, rTime)
		// The fastest path's rate: the cycle's arcs over the time of the
		// path (text, binary or CSR) that took least. That path is the
		// smallest share of op_p50_s, so a slowdown of it shows here in
		// full while op_p50_s dilutes it; the larger paths move op_p50_s.
		roundRate = append(roundRate, rArcs/min(rText, rBinary, rCSR))
		roundCPU = append(roundCPU, rCPU)
	}

	b.e2e["op_p50_s"] = median(opS)
	b.e2e["arcs_per_s"] = median(roundRate)
	b.e2e["cpu_s"] = median(roundCPU)
	all := ingestTimes{}
	for _, t := range times {
		for k, v := range t {
			all[k] += v
		}
	}
	for name, v := range map[string]float64{
		"ingest.text_arcs_per_s":   all["arcs"] / all["text"],
		"ingest.binary_arcs_per_s": all["arcs"] / all["binary"],
		"ingest.csr_arcs_per_s":    all["arcs"] / all["csr"],
	} {
		b.e2e[name] = v
		b.layer[name] = v
	}
	if err := recordPeakRSS(b, "self"); err != nil {
		return err
	}
	// After the peak RSS is read, so that it is the ops' alone.
	if err := checkAtProcs(ctx, b, srcs, textDir, binDir); err != nil {
		return err
	}
	if b.cfg.trace {
		// Layer work is measured at one worker, as the ops run, where the
		// passes nest (generate ⊂ encode ⊂ write, and ToCSR generates
		// every shard twice); the shares are of the op time.
		base := sum(opS)
		b.layer["kron.generate_arcs_per_s"] = times["kron"]["arcs"] / times["kron"]["count1"]
		b.layer["model.rmat_arcs_per_s"] = times["rmat"]["arcs"] / times["rmat"]["count1"]
		b.layer["model.rgg2d_arcs_per_s"] = times["rgg2d"]["arcs"] / times["rgg2d"]["count1"]
		b.layer["stream.workers1_arcs_per_s"] = all["arcs"] / all["count1"]
		b.layer["stream.workersN_arcs_per_s"] = all["arcs"] / all["countN"]
		b.layer["gio.encode_text_pct"] = pct(all["encodeText1"]-all["count1"], base)
		b.layer["gio.encode_binary_pct"] = pct(all["encodeBinary1"]-all["count1"], base)
		b.layer["distgen.write_text_pct"] = pct(all["writeText1"]-all["encodeText1"], base)
		b.layer["distgen.write_binary_pct"] = pct(all["writeBinary1"]-all["encodeBinary1"], base)
		b.layer["csr.build_pct"] = pct(all["csr1"]-2*all["count1"], base)
		b.layer["gio.bytes_written"] = all["bytes"] / float64(len(opS))
	}
	return nil
}

// checkAtProcs sends every source once more through the three paths,
// after the window, at the host's procs workers, threads and CPUs, and
// checks the outputs as it checks an op's: the ops run on one thread,
// and the paths must agree at one worker and at procs workers.
func checkAtProcs(ctx context.Context, b *bench, srcs []*ingestSource, textDir, binDir string) error {
	procs := kv.WithWorkers(b.procs)
	for _, s := range srcs {
		if err := firstErr(os.RemoveAll(textDir), os.RemoveAll(binDir)); err != nil {
			return err
		}
		debug.FreeOSMemory()
		var mT, mB *kv.ShardManifest
		var g *kv.CSRGraph
		err := b.atProcs(func() (err error) {
			if mT, err = kv.WriteShards(ctx, textDir, s.src, procs); err != nil {
				return err
			}
			if mB, err = kv.WriteShards(ctx, binDir, s.src, procs, kv.WithBinary(true)); err != nil {
				return err
			}
			g, err = kv.ToCSR(ctx, s.src, procs)
			return err
		})
		if err != nil {
			return err
		}
		if _, err := checkIngest(b, s, textDir, binDir, mT, mB, g); err != nil {
			return err
		}
	}
	return nil
}

// checkIngest checks one op's three outputs against the single-worker
// reference and the properties every source must have, and returns the
// shard bytes written.
func checkIngest(b *bench, s *ingestSource, textDir, binDir string, mT, mB *kv.ShardManifest, g *kv.CSRGraph) (int64, error) {
	if b.cfg.corrupt == "shard" {
		if err := flipFirstArc(binDir, mB); err != nil {
			return 0, err
		}
	}
	n := s.src.NumVertices()
	var written int64
	for _, out := range []struct {
		path string
		dir  string
		m    *kv.ShardManifest
	}{{"text shards", textDir, mT}, {"binary shards", binDir, mB}} {
		d := newArcDigest(n, s.refArcs)
		size, err := digestShards(d, out.dir, out.m)
		if err != nil {
			return 0, err
		}
		written += size
		b.check(s.kind+" "+out.path+": arc count", out.m.TotalArcs == s.refArcs && d.arcs == s.refArcs,
			"manifest %d, decoded %d, reference %d", out.m.TotalArcs, d.arcs, s.refArcs)
		b.check(s.kind+" "+out.path+": sorted, in range, duplicate-free", d.bad == "", "%s", d.bad)
		b.check(s.kind+" "+out.path+": digest", d.sum() == s.refDigst, "%s, single-worker Digest %s", d.sum(), s.refDigst)
		if out.m == mB {
			b.check(s.kind+" binary shards: 16 B per arc", size == 16*s.refArcs, "%d bytes for %d arcs", size, s.refArcs)
		}
	}
	d := newArcDigest(n, s.refArcs)
	digestCSR(d, g)
	b.check(s.kind+" CSR: arc count", g.NumArcs() == s.refArcs && d.arcs == s.refArcs, "%d arcs, reference %d", g.NumArcs(), s.refArcs)
	b.check(s.kind+" CSR: sorted, in range, duplicate-free", d.bad == "", "%s", d.bad)
	b.check(s.kind+" CSR: digest", d.sum() == s.refDigst, "%s, single-worker Digest %s", d.sum(), s.refDigst)
	if s.a != nil {
		b.check("kron arcs = arcs(A)·arcs(B)", s.refArcs == s.a.NumArcs()*s.b.NumArcs(),
			"%d ≠ %d·%d", s.refArcs, s.a.NumArcs(), s.b.NumArcs())
		nb := int64(s.b.NumVertices())
		for v := int64(0); v < n; v++ {
			i, k := int32(v/nb), int32(v%nb)
			if want := s.a.OutDegreeRaw(i) * s.b.OutDegreeRaw(k); g.OutDegree(v) != want {
				b.check("kron CSR out-degree(i,k) = deg_A(i)·deg_B(k)", false, "vertex %d: %d, want %d", v, g.OutDegree(v), want)
				break
			}
		}
	}
	return written, nil
}

// ingestLayers makes, for the traced run only, the passes that separate
// the layers: at one worker, a counting pass, a text and a binary
// encoding pass over io.Discard, a text and a binary WriteShards, and a
// ToCSR; and a counting pass at the host's procs workers, threads and
// CPUs (generation with the ordered handoff), whose rate beside the
// one-worker one is the stream's parallel efficiency.
func ingestLayers(ctx context.Context, b *bench, op int64, s *ingestSource, t ingestTimes) error {
	one := kv.WithWorkers(1)
	stream := func(sink kv.ArcSink, opts ...kv.Option) func() error {
		return func() error {
			n, err := kv.Stream(ctx, s.src, sink, opts...)
			if err == nil && n != s.refArcs {
				err = fmt.Errorf("streamed %d arcs, want %d", n, s.refArcs)
			}
			return err
		}
	}
	write := func(opts ...kv.Option) func() error {
		return func() error {
			dir := filepath.Join(b.dir, "layers")
			defer os.RemoveAll(dir)
			_, err := kv.WriteShards(ctx, dir, s.src, opts...)
			return err
		}
	}
	for _, p := range []struct {
		key, span string
		f         func() error
	}{
		{"count1", "generate." + s.kind, stream(&kv.CountingSink{}, one)},
		{"countN", "stream.workersN", func() error {
			return b.atProcs(stream(&kv.CountingSink{}, kv.WithWorkers(b.procs)))
		}},
		{"encodeText1", "gio.encode_text", stream(kv.NewEdgeListSink(io.Discard), one)},
		{"encodeBinary1", "gio.encode_binary", stream(kv.NewBinaryArcSink(io.Discard), one)},
		{"writeText1", "distgen.write_text", write(one)},
		{"writeBinary1", "distgen.write_binary", write(one, kv.WithBinary(true))},
		{"csr1", "csr.build", func() error { _, err := kv.ToCSR(ctx, s.src, one); return err }},
	} {
		debug.FreeOSMemory()
		d, err := b.tr.call(p.span, op, 0, p.f)
		if err != nil {
			return err
		}
		t[p.key] += d
	}
	return nil
}

// flipFirstArc reverses the first arc of the first non-empty binary
// shard in place: the corrupted input of the shard check.
func flipFirstArc(dir string, m *kv.ShardManifest) error {
	for _, s := range m.Shards {
		if s.Arcs == 0 {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, s.File), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		var rec [16]byte
		if _, err := f.ReadAt(rec[:], 0); err != nil {
			f.Close()
			return err
		}
		var flipped [16]byte
		copy(flipped[:8], rec[8:])
		copy(flipped[8:], rec[:8])
		_, err = f.WriteAt(flipped[:], 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return fmt.Errorf("no arcs to flip")
}
