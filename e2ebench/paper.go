package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	kv "kronvalid"
)

// paperInputs are the §VI factors of one paper-validate run: A (the web
// stand-in), A+I, a Δ ≤ 1 factor for Thm. 3, and the two small factors
// of the fully materialized product.
type paperInputs struct {
	a, aI, pa, sa, sp *kv.Graph
}

// runPaperValidate times validation requests: every closed form of the
// ~10^10-arc products A⊗(A+I), A⊗A and A⊗pa1, then a verdict from a
// seeded ValidateSampled of A⊗(A+I) and a ValidateFull of a ~1.6·10^4-
// vertex web⊗pa1 product.
func runPaperValidate(ctx context.Context, b *bench) error {
	n, ns := 1<<14, 128
	vSamples, eSamples, maxDeg := 64, 256, int64(300)
	// Targets of the squared-degree sums Σd² of A and of the small
	// product, near their typical values at these sizes: the direct
	// engines' work and memory grow with Σd², so each seed's factors are
	// the seeded candidates closest to the targets.
	targetA, targetS := int64(1_930_000), int64(15_000_000)
	if b.cfg.small {
		n, ns = 1<<9, 12
		vSamples, eSamples = 8, 16
		targetA, targetS = 0, 0
	}
	seed := b.cfg.seed
	// Set-up picks the factors' seeds and builds the factors.
	in, err := timedSetup(b, 9, func() (paperInputs, error) {
		seedA, seedSA, seedSP := pickSeeds(seed, n, ns, targetA, targetS)
		a := kv.WebGraph(n, 3, 0.75, seedA)
		return paperInputs{
			a:  a,
			aI: a.WithAllLoops(),
			pa: kv.TriangleLimitedPA(n, seed+1),
			sa: kv.WebGraph(ns, 3, 0.75, seedSA),
			sp: kv.TriangleLimitedPA(ns, seedSP),
		}, nil
	}, nil)
	if err != nil {
		return err
	}

	// Expected totals from the benchmark's own triangle counter.
	tauA := simpleTriangles(in.a)
	if b.cfg.corrupt == "tau" {
		tauA++
	}
	edgesA := undirectedEdges(in.a)
	wantAA := 6 * tauA * tauA
	wantAI := tauA * (6*tauA + 6*edgesA + int64(n))

	var opS, truthS, verdictS, cpuS, rateS []float64
	var wedgeChecks int64
	pick := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	t0 := time.Now()
	for op := int64(1); op == 1 || !b.deadline(t0); op++ {
		runtime.GC()
		c0 := cpuSelf()
		opID, opStart := b.tr.begin("op", op, 0)
		call := func(name string, f func() error) error {
			_, err := b.tr.call(name, op, opID, f)
			return err
		}
		pAI, err1 := kv.NewProduct(in.a, in.aI)
		pAA, err2 := kv.NewProduct(in.a, in.a)
		pAP, err3 := kv.NewProduct(in.a, in.pa)
		pS, err4 := kv.NewProduct(in.sa, in.sp)
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return err
		}
		var tauAI, tauAA, wedges int64
		var tc *kv.VertexStat
		var dc *kv.EdgeStat
		var pt *kv.ProductTruss
		err := firstErr(
			call("kron.triangle_total", func() (err error) {
				if tauAI, err = kv.TriangleTotal(pAI); err != nil {
					return err
				}
				tauAA, err = kv.TriangleTotal(pAA)
				return err
			}),
			call("kron.vertex_participation", func() (err error) { tc, err = kv.VertexParticipation(pAI); return }),
			call("kron.edge_participation", func() (err error) { dc, err = kv.EdgeParticipation(pAI); return }),
			call("kron.wedge_count", func() (err error) { wedges, err = kv.ProductWedgeCount(pAI); return }),
			call("kron.truss", func() (err error) { pt, err = kv.ProductTrussDecomposition(pAP); return }),
		)
		if err != nil {
			return err
		}
		truth := time.Since(opStart).Seconds()
		var rs, rf *kv.ValidationReport
		err = firstErr(
			call("verify.sampled", func() (err error) {
				rs, err = kv.ValidateSampled(pAI, vSamples, eSamples, maxDeg, seed^uint64(op))
				return
			}),
			call("verify.full", func() (err error) { rf, err = kv.ValidateFull(pS, 1<<20, 1<<26); return }),
		)
		if err != nil {
			return err
		}
		d := b.tr.end(opID, opStart)
		cpuS = append(cpuS, cpuSelf()-c0)
		opS = append(opS, d)
		truthS = append(truthS, truth)
		verdictS = append(verdictS, d-truth)
		// The truth rate: arcs of the three large products given exact
		// ground truth per second of closed forms, so a change to the
		// closed forms shows here undiluted by the verdict.
		rateS = append(rateS, float64(pAI.NumArcs()+pAA.NumArcs()+pAP.NumArcs())/truth)
		b.ops++

		// Checks, outside the timed op.
		b.check("sampled validation passes", rs.AllPassed() && len(rs.Checks) > 0, "failed: %v", rs.Failures())
		b.check("full validation passes", rf.AllPassed() && len(rf.Checks) > 0, "failed: %v", rf.Failures())
		b.check("τ(A⊗A) = 6·τ_A²", tauAA == wantAA, "τ(A⊗A) = %d, want %d", tauAA, wantAA)
		b.check("τ(A⊗(A+I)) = τ_A·(6τ_A + 6|E_A| + n_A)", tauAI == wantAI, "τ = %d, want %d", tauAI, wantAI)
		sumT, errT := tc.Total()
		b.check("Σ t_C = 3τ(C)", errT == nil && sumT == 3*tauAI, "Σ t_C = %d (%v), 3τ = %d", sumT, errT, 3*tauAI)
		sumD, errD := dc.Total()
		b.check("Σ Δ_C = 6τ(C)", errD == nil && sumD == 6*tauAI, "Σ Δ_C = %d (%v), 6τ = %d", sumD, errD, 6*tauAI)
		b.check("wedges ≥ 3τ(C)", wedges >= 3*tauAI, "wedges %d < 3τ %d", wedges, 3*tauAI)
		b.check("Thm. 3 truss has a triangle class", pt.MaxK() >= 3 || tauA == 0, "max k = %d", pt.MaxK())

		if b.cfg.trace {
			wc, err := paperLayers(b, op, in, pAI, pS, tc, pick, maxDeg)
			if err != nil {
				return err
			}
			wedgeChecks += wc
		}
	}

	b.e2e["op_p50_s"] = median(opS)
	b.e2e["arcs_per_s"] = median(rateS)
	b.e2e["cpu_s"] = median(cpuS)
	b.e2e["truth_p50_s"] = median(truthS)
	b.e2e["verdict_p50_s"] = median(verdictS)
	if err := recordPeakRSS(b, "self"); err != nil {
		return err
	}
	if b.cfg.trace {
		self := selfTimes(b.tr.spans)
		base := sum(opS)
		for _, name := range []string{"sparse.square", "kron.factor_stats", "kron.triangle_total",
			"kron.vertex_participation", "kron.edge_participation", "kron.wedge_count", "kron.truss",
			"kron.egonet", "verify.sampled", "kron.materialize", "triangle.count", "truss.decompose",
			"census.directed", "verify.full"} {
			b.layer[name+"_pct"] = pct(self[name], base)
		}
		inner := self["kron.materialize"] + self["triangle.count"] + self["truss.decompose"] +
			self["census.directed"] + self["verify.full_closed_forms"]
		b.layer["verify.full_self_pct"] = pct(self["verify.full"]-inner, base)
		b.layer["triangle.wedge_checks"] = float64(wedgeChecks) / float64(len(opS))
	}
	return nil
}

// paperLayers makes, for the traced run only, the separate layer calls
// that ValidateFull and the closed forms make inside the program, so
// their self times can be told apart. It returns the wedge checks of
// the direct triangle count.
func paperLayers(b *bench, op int64, in paperInputs, pAI, pS *kv.Product, tc *kv.VertexStat,
	pick *rand.Rand, maxDeg int64) (int64, error) {
	call := func(name string, f func() error) error {
		_, err := b.tr.call(name, op, 0, f)
		return err
	}
	var c *kv.Graph
	var wc int64
	err := firstErr(
		call("sparse.square", func() error { m := in.a.ToSparse(); m.Mul(m); return nil }),
		call("kron.factor_stats", func() error {
			kv.ComputeFactorStats(in.a)
			kv.ComputeFactorStats(in.aI)
			return nil
		}),
		call("kron.egonet", func() error {
			for k := 0; k < 8; k++ {
				v := pick.Int64N(pAI.NumVertices())
				if pAI.OutDegreeRaw(v) > maxDeg {
					continue
				}
				if _, err := kv.VerifyEgonet(pAI, tc, v, maxDeg); err != nil {
					return err
				}
			}
			return nil
		}),
		call("kron.materialize", func() (err error) { c, err = pS.Materialize(1<<20, 1<<26); return }),
	)
	if err != nil {
		return 0, err
	}
	err = firstErr(
		call("triangle.count", func() error { wc = kv.CountTriangles(c).WedgeChecks; return nil }),
		call("truss.decompose", func() error { kv.DecomposeTruss(c); return nil }),
		call("census.directed", func() error {
			kv.DirectedVertexCensusOf(c)
			kv.DirectedEdgeCensusOf(c)
			return nil
		}),
		call("verify.full_closed_forms", func() error {
			if _, err := kv.VertexParticipation(pS); err != nil {
				return err
			}
			dc, err := kv.EdgeParticipation(pS)
			if err != nil {
				return err
			}
			dc.Materialize()
			if _, err := kv.TriangleTotal(pS); err != nil {
				return err
			}
			if _, err := kv.ProductWedgeCount(pS); err != nil {
				return err
			}
			if _, err := kv.ProductTrussDecomposition(pS); err != nil {
				return err
			}
			_, err = kv.DirectedCensus(pS)
			return err
		}),
	)
	return wc, err
}

// pickSeeds chooses the seeds of A and of the small factors: among
// seeded candidates, A is the web graph whose Σd² is closest to targetA
// and (sa, sp) the pair whose product of Σd² is closest to targetS. A
// zero target takes the first candidate.
func pickSeeds(seed uint64, n, ns int, targetA, targetS int64) (seedA, seedSA, seedSP uint64) {
	base := seed * 64
	seedA, seedSA, seedSP = base, base+16, base+32
	if targetA > 0 {
		best := int64(-1)
		for j := uint64(0); j < 8; j++ {
			if d := abs64(squares(kv.WebGraph(n, 3, 0.75, base+j)) - targetA); best < 0 || d < best {
				best, seedA = d, base+j
			}
		}
	}
	if targetS > 0 {
		var sa, sp []int64
		for j := uint64(0); j < 12; j++ {
			sa = append(sa, squares(kv.WebGraph(ns, 3, 0.75, base+16+j)))
			sp = append(sp, squares(kv.TriangleLimitedPA(ns, base+32+j)))
		}
		best := int64(-1)
		for i := range sa {
			for j := range sp {
				if d := abs64(sa[i]*sp[j] - targetS); best < 0 || d < best {
					best, seedSA, seedSP = d, base+16+uint64(i), base+32+uint64(j)
				}
			}
		}
	}
	return seedA, seedSA, seedSP
}

// squares returns Σ_v d(v)² over a factor's out-degrees.
func squares(g *kv.Graph) int64 {
	var s int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		d := g.OutDegreeRaw(v)
		s += d * d
	}
	return s
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// recordPeakRSS records the peak RSS of process pid.
func recordPeakRSS(b *bench, pid string) error {
	rss, err := peakRSSMB(pid)
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	b.e2e["peak_rss_mb"] = rss
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
