// Command smooth runs the lossless smoothing algorithm over a trace and
// reports the schedule and the paper's four smoothness measures.
//
// Usage:
//
//	smooth -in driving1.csv -K 1 -H 9 -D 0.2
//	smooth -seq driving1 -D 0.2 -schedule     # built-in trace, full table
//	smooth -seq tennis -policy moving-average -D 0.2
//	smooth -seq driving1 -policy capped:2.5e6 # hard 2.5 Mbps ceiling
//	smooth -seq backyard -policy min-var      # centre in the feasible band
//
// The -policy flag selects the rate-selection policy: basic (hold the
// previous rate; fewest changes), moving-average (track Eq. 15),
// capped:<bps> (basic under a hard bits/s ceiling; unavoidable
// delay-bound violations are reported, never silently exceeded), or
// min-var (centre within the feasible band).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpegsmooth"
)

func main() {
	var (
		in       = flag.String("in", "", "trace CSV file (from tracegen); mutually exclusive with -seq")
		seq      = flag.String("seq", "", "built-in sequence: driving1, driving2, tennis, backyard")
		pictures = flag.Int("pictures", 270, "pictures for built-in sequences")
		seed     = flag.Int64("seed", 1, "seed for built-in sequences")
		k        = flag.Int("K", 1, "pictures with known sizes before sending (Theorem 1 needs K >= 1)")
		h        = flag.Int("H", 0, "lookahead interval in pictures (0 = pattern length N)")
		d        = flag.Float64("D", 0.2, "delay bound in seconds")
		policy   = flag.String("policy", "basic", "rate selection: basic | moving-average | capped:<bps> | min-var")
		schedule = flag.Bool("schedule", false, "print the full per-picture schedule")
		compare  = flag.Bool("compare", false, "also run ideal smoothing and the offline optimum")
		out      = flag.String("o", "", "write the schedule as CSV to this file")
	)
	flag.Parse()
	if err := run(*in, *seq, *pictures, *seed, *k, *h, *d, *policy, *schedule, *compare, *out); err != nil {
		fmt.Fprintf(os.Stderr, "smooth: %v\n", err)
		os.Exit(1)
	}
}

func run(in, seq string, pictures int, seed int64, k, h int, d float64, policy string, schedule, compare bool, out string) error {
	tr, err := loadTrace(in, seq, pictures, seed)
	if err != nil {
		return err
	}
	if h == 0 {
		h = tr.GOP.N
	}
	p, err := mpegsmooth.ParsePolicy(policy)
	if err != nil {
		return err
	}
	cfg := mpegsmooth.Config{K: k, H: h, D: d, Policy: p}

	stats := mpegsmooth.NewDecisionStats()
	s, err := mpegsmooth.SmoothObserved(tr, cfg, func(o mpegsmooth.Observation) {
		stats.Add(o.LowerSlack, o.UpperSlack, o.Depth, o.EstimatorError)
	})
	if err != nil {
		return err
	}
	violations := s.PolicyViolations()
	if err := mpegsmooth.Verify(s); err != nil && k >= 1 {
		if len(violations) == 0 {
			return fmt.Errorf("invariant check failed: %w", err)
		}
		// The policy knowingly traded bound violations for its own
		// constraint (a binding rate cap); report rather than fail.
		fmt.Printf("note: %v\n", err)
	}
	m, err := mpegsmooth.Evaluate(s)
	if err != nil {
		return err
	}
	ds := mpegsmooth.SummarizeDelays(s)

	fmt.Printf("trace %s: %d pictures, pattern %s, mean %.3f Mbps, unsmoothed peak %.3f Mbps\n",
		tr.Name, tr.Len(), tr.GOP.Pattern(), tr.MeanRate()/1e6, tr.PeakPictureRate()/1e6)
	fmt.Printf("algorithm: K=%d H=%d D=%.4fs policy=%s\n", k, h, d, p.Name())
	fmt.Printf("  area difference   %.4f\n", m.AreaDiff)
	fmt.Printf("  rate changes      %d\n", m.RateChanges)
	fmt.Printf("  max rate          %.3f Mbps\n", m.MaxRate/1e6)
	fmt.Printf("  S.D. of rate      %.3f Mbps\n", m.StdDev/1e6)
	fmt.Printf("  max delay         %.4f s (bound %.4f, %d violations)\n", ds.Max, d, ds.Violations)
	fmt.Printf("decisions: %d (mean lookahead %.2f, min slack %.0f bps, estimator error mean %.4f rms %.4f)\n",
		stats.Decisions, stats.MeanDepth(), stats.MinSlack(), stats.MeanAbsEstimatorError(), stats.RMSEstimatorError())
	if len(violations) > 0 {
		fmt.Printf("policy violations: %d pictures outside the Theorem 1 band (first at %d)\n",
			len(violations), violations[0])
	}

	if compare {
		ideal, err := mpegsmooth.Ideal(tr)
		if err != nil {
			return err
		}
		ids := mpegsmooth.SummarizeDelays(ideal)
		fmt.Printf("ideal smoothing: max delay %.4f s mean delay %.4f s\n", ids.Max, ids.Mean)
		off, err := mpegsmooth.OfflineSmooth(tr, d)
		if err != nil {
			return err
		}
		fmt.Printf("offline optimum (Ott et al., sizes known a priori): peak %.3f Mbps, %d rate changes\n",
			off.PeakRate()/1e6, off.RateChanges())
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := s.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("schedule written to %s\n", out)
	}

	if schedule {
		fmt.Println("\npicture  type      bits      rate(bps)     start        depart       delay")
		for j := 0; j < tr.Len(); j++ {
			fmt.Printf("%7d   %s  %9d  %12.0f  %10.5f  %10.5f  %9.5f\n",
				j, tr.TypeOf(j), tr.Sizes[j], s.Rates[j], s.Start[j], s.Depart[j], s.Delays[j])
		}
	}
	return nil
}

func loadTrace(in, seq string, pictures int, seed int64) (*mpegsmooth.Trace, error) {
	if in != "" && seq != "" {
		return nil, fmt.Errorf("-in and -seq are mutually exclusive")
	}
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mpegsmooth.ReadTraceCSV(f)
	}
	gens := map[string]func(int, int64) (*mpegsmooth.Trace, error){
		"driving1": mpegsmooth.Driving1,
		"driving2": mpegsmooth.Driving2,
		"tennis":   mpegsmooth.Tennis,
		"backyard": mpegsmooth.Backyard,
	}
	gen, ok := gens[strings.ToLower(seq)]
	if !ok {
		return nil, fmt.Errorf("need -in FILE or -seq NAME (driving1, driving2, tennis, backyard)")
	}
	return gen(pictures, seed)
}
