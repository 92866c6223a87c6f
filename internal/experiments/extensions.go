package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/netsim"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/vbv"
	"mpegsmooth/internal/video"
)

// VariantRow compares the basic and moving-average variants on one
// sequence (experiment Ext A, reproducing the Section 4.4 claim).
type VariantRow struct {
	Sequence string
	Basic    metrics.Measures
	Moving   metrics.Measures
}

// ExtA compares the two algorithm variants across the four sequences at
// the paper's recommended parameters (K=1, H=N, D=0.2), one SmoothAll
// batch per policy.
func ExtA(pictures int, seed int64, opts ...SweepOption) ([]VariantRow, error) {
	sc := applySweepOptions(opts)
	seqs, err := Sequences(pictures, seed)
	if err != nil {
		return nil, err
	}
	base := core.Config{K: 1, H: 0, D: 0.2, Policy: core.BasicPolicy{}}
	mb, err := batchMeasures(seqs, base, sc.parallelism)
	if err != nil {
		return nil, err
	}
	mod := base
	mod.Policy = core.MovingAveragePolicy{}
	mm, err := batchMeasures(seqs, mod, sc.parallelism)
	if err != nil {
		return nil, err
	}
	rows := make([]VariantRow, len(seqs))
	for i, tr := range seqs {
		rows[i] = VariantRow{Sequence: tr.Name, Basic: mb[i], Moving: mm[i]}
	}
	return rows, nil
}

// MuxRow is one point of the statistical-multiplexing experiment
// (Ext B): loss probability at a given number of multiplexed streams.
type MuxRow struct {
	Streams      int
	RawLoss      float64
	SmoothedLoss float64
}

// ExtB measures cell-loss probability for n raw vs n smoothed streams
// through a finite-buffer multiplexer whose link has fixed per-stream
// headroom — the motivation experiment of refs [10, 11].
func ExtB(maxStreams int, seed int64) ([]MuxRow, error) {
	if maxStreams < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 streams")
	}
	// Independent single-scene sources: the discriminator is the I≫B
	// picture-scale fluctuation that smoothing removes.
	var raws, smooths []*metrics.StepFunc
	var meanSum float64
	for i := 0; i < maxStreams; i++ {
		tr, err := trace.Generate(trace.SynthConfig{
			Name:  fmt.Sprintf("mux-%d", i),
			GOP:   mpeg.GOP{M: 3, N: 9},
			IBase: 210_000, PBase: 95_000, BBase: 32_000,
			Scenes: []trace.ScenePhase{{Pictures: 135, Complexity: 1, Motion: 0.9}},
			Seed:   seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		meanSum += tr.MeanRate()
		raw, err := rawRate(tr)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
		s, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: 0.2})
		if err != nil {
			return nil, err
		}
		sm, err := s.RateFunc()
		if err != nil {
			return nil, err
		}
		smooths = append(smooths, sm)
	}
	meanPerStream := meanSum / float64(maxStreams)

	var rows []MuxRow
	for n := 2; n <= maxStreams; n++ {
		offsets := make([]float64, n)
		for i := range offsets {
			offsets[i] = float64(i) * 0.011
		}
		link := meanPerStream * float64(n) * 1.25
		run := func(rates []*metrics.StepFunc) (float64, error) {
			st, err := netsim.Run(netsim.RunConfig{
				Rates: rates[:n], Offsets: offsets,
				LinkRate: link, BufferCells: 100,
			})
			if err != nil {
				return 0, err
			}
			return st.LossProbability(), nil
		}
		rawLoss, err := run(raws)
		if err != nil {
			return nil, err
		}
		smoothLoss, err := run(smooths)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MuxRow{Streams: n, RawLoss: rawLoss, SmoothedLoss: smoothLoss})
	}
	return rows, nil
}

func rawRate(tr *trace.Trace) (*metrics.StepFunc, error) {
	times := make([]float64, tr.Len())
	values := make([]float64, tr.Len())
	for j := 0; j < tr.Len(); j++ {
		times[j] = float64(j) * tr.Tau
		values[j] = float64(tr.Sizes[j]) / tr.Tau
	}
	return metrics.NewStepFunc(times, values, tr.Duration())
}

// EstimatorRow is one point of the estimator ablation (Ext C).
type EstimatorRow struct {
	Estimator string
	Measures  metrics.Measures
	MaxDelay  float64
}

// ExtC compares size estimators on Driving1 at the paper's parameters.
// The delay bound holds for ALL of them (Theorem 1 does not need
// accurate estimates); the measures show how much estimate quality buys.
func ExtC(pictures int, seed int64) ([]EstimatorRow, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	var rows []EstimatorRow
	for _, est := range []core.Estimator{
		core.PatternEstimator{},
		core.TypeMeanEstimator{},
		core.EWMAEstimator{Alpha: 0.5},
		core.OracleEstimator{},
	} {
		cfg := core.Config{K: 1, H: tr.GOP.N, D: 0.2, Estimator: est}
		m, s, err := MeasuresFor(tr, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EstimatorRow{Estimator: est.Name(), Measures: m, MaxDelay: s.MaxDelay()})
	}
	return rows, nil
}

// ViolationRow is one point of the K=0 experiment (Ext D).
type ViolationRow struct {
	K          int
	D          float64
	Violations int
	MaxDelay   float64
}

// ExtD reproduces the Section 5.2 observation: with K=0 and very small
// slack the delay bound can be violated; with K=1 it never is.
func ExtD(pictures int, seed int64) ([]ViolationRow, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	var rows []ViolationRow
	tau := tr.Tau
	for _, c := range []struct {
		k     int
		slack float64
	}{
		{0, 0.001}, {0, 0.01}, {0, 0.0667}, {0, 0.1333},
		{1, 0.001}, {1, 0.01}, {1, 0.0667}, {1, 0.1333},
	} {
		d := float64(c.k+1)*tau + c.slack
		s, err := core.Smooth(tr, core.Config{K: c.k, H: tr.GOP.N, D: d})
		if err != nil {
			return nil, err
		}
		ds := metrics.SummarizeDelays(s.Delays, d)
		rows = append(rows, ViolationRow{K: c.k, D: d, Violations: ds.Violations, MaxDelay: ds.Max})
	}
	return rows, nil
}

// VBVRow is one point of the decoder-buffer experiment (Ext F).
type VBVRow struct {
	D              float64
	StartupDelay   float64
	PeakBufferBits float64
}

// ExtF analyzes the MPEG model-decoder (VBV) requirements a smoothed
// stream imposes as the delay bound varies: the minimum decoder start-up
// delay equals the schedule's maximum picture delay (bounded by D per
// Theorem 1), and the peak buffer grows with it — the decoder-side face
// of the smoothing trade-off.
func ExtF(pictures int, seed int64) ([]VBVRow, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	var rows []VBVRow
	for _, d := range []float64{0.0667, 0.1, 0.1333, 0.2, 0.2667, 0.3333, 0.4} {
		s, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: d})
		if err != nil {
			return nil, err
		}
		a, err := vbv.Analyze(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, VBVRow{D: d, StartupDelay: a.StartupDelay, PeakBufferBits: a.PeakBuffer})
	}
	return rows, nil
}

// AlgoRow is one line of the algorithm-comparison table (Ext I).
type AlgoRow struct {
	Algorithm   string
	MaxDelay    float64
	PeakRate    float64
	StdDev      float64
	RateChanges int
}

// ExtI lines up the whole algorithm family on Driving1 at a common
// setting: the paper's basic and moving-average variants (bounded delay,
// online), piecewise-CBR window averaging at several windows (unbounded
// delay, the PCRTT-style alternative), ideal smoothing, and the offline
// taut-string optimum.
func ExtI(pictures int, seed int64) ([]AlgoRow, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	var rows []AlgoRow
	addSchedule := func(name string, s *core.Schedule) error {
		f, err := s.RateFunc()
		if err != nil {
			return err
		}
		rows = append(rows, AlgoRow{
			Algorithm:   name,
			MaxDelay:    s.MaxDelay(),
			PeakRate:    f.Max(),
			StdDev:      f.Std(),
			RateChanges: f.Changes(metrics.RateChangeTolerance),
		})
		return nil
	}
	basic, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: 0.2})
	if err != nil {
		return nil, err
	}
	if err := addSchedule("basic K=1 D=0.2", basic); err != nil {
		return nil, err
	}
	moving, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: 0.2, Policy: core.MovingAveragePolicy{}})
	if err != nil {
		return nil, err
	}
	if err := addSchedule("moving-average D=0.2", moving); err != nil {
		return nil, err
	}
	for _, w := range []int{1, tr.GOP.N, 3 * tr.GOP.N, 10 * tr.GOP.N} {
		s, err := core.PiecewiseCBR(tr, w)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("piecewise-CBR W=%d", w)
		if w == tr.GOP.N {
			name = "ideal (W=N)"
		}
		if err := addSchedule(name, s); err != nil {
			return nil, err
		}
	}
	off, err := core.OfflineSmooth(tr, 0.2)
	if err != nil {
		return nil, err
	}
	f, err := off.RateFunc()
	if err != nil {
		return nil, err
	}
	maxD := 0.0
	for _, d := range off.Delays {
		if d > maxD {
			maxD = d
		}
	}
	rows = append(rows, AlgoRow{
		Algorithm:   "offline optimum D=0.2",
		MaxDelay:    maxD,
		PeakRate:    f.Max(),
		StdDev:      f.Std(),
		RateChanges: f.Changes(metrics.RateChangeTolerance),
	})
	return rows, nil
}

// BufferRow is one point of the buffer-dimensioning experiment (Ext H).
type BufferRow struct {
	BufferCells  int
	RawLoss      float64
	SmoothedLoss float64
}

// ExtH sweeps the multiplexer buffer size at a fixed multiplexing level,
// the classic buffer-dimensioning view of the smoothing gain: smoothed
// streams reach negligible loss with a far smaller switch buffer.
func ExtH(streams int, seed int64) ([]BufferRow, error) {
	if streams < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 streams")
	}
	var raws, smooths []*metrics.StepFunc
	var meanSum float64
	for i := 0; i < streams; i++ {
		tr, err := trace.Generate(trace.SynthConfig{
			Name:  fmt.Sprintf("buf-%d", i),
			GOP:   mpeg.GOP{M: 3, N: 9},
			IBase: 210_000, PBase: 95_000, BBase: 32_000,
			Scenes: []trace.ScenePhase{{Pictures: 135, Complexity: 1, Motion: 0.9}},
			Seed:   seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		meanSum += tr.MeanRate()
		raw, err := rawRate(tr)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
		s, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: 0.2})
		if err != nil {
			return nil, err
		}
		sm, err := s.RateFunc()
		if err != nil {
			return nil, err
		}
		smooths = append(smooths, sm)
	}
	link := meanSum * 1.25
	offsets := make([]float64, streams)
	for i := range offsets {
		offsets[i] = float64(i) * 0.011
	}
	var rows []BufferRow
	for _, buf := range []int{0, 10, 30, 100, 300, 1000, 3000} {
		run := func(rates []*metrics.StepFunc) (float64, error) {
			st, err := netsim.Run(netsim.RunConfig{
				Rates: rates, Offsets: offsets, LinkRate: link, BufferCells: buf,
			})
			if err != nil {
				return 0, err
			}
			return st.LossProbability(), nil
		}
		rawLoss, err := run(raws)
		if err != nil {
			return nil, err
		}
		smoothLoss, err := run(smooths)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BufferRow{BufferCells: buf, RawLoss: rawLoss, SmoothedLoss: smoothLoss})
	}
	return rows, nil
}

// QuantRow is one point of the lossy-quantization demonstration (Ext G).
type QuantRow struct {
	Scale  int32
	Bits   int64
	PSNRdB float64
}

// ExtG reproduces the paper's Section 3.1 observation about why lossy
// rate control must not be used to flatten I pictures: "We experimented
// with changing the quantizer scale of an I picture from 4 to 30. The
// size of the picture is reduced from 282,976 bits to 75,960 bits. But
// the picture at the coarser quantizer scale (30) is grainy, fuzzy, and
// has visible blocking effects." We encode the same synthetic frame as
// an I picture across quantizer scales and report coded size and PSNR.
func ExtG(width, height int, seed int64) ([]QuantRow, error) {
	synth, err := video.NewSynthesizer(video.DrivingScript(width, height, 3, seed))
	if err != nil {
		return nil, err
	}
	frame := synth.Next()
	gop := mpeg.GOP{M: 1, N: 1} // all-I encoding
	var rows []QuantRow
	for _, scale := range []int32{2, 4, 8, 15, 22, 30} {
		cfg := mpeg.DefaultConfig(width, height, gop)
		cfg.IQuant = scale
		enc, err := mpeg.NewEncoder(cfg)
		if err != nil {
			return nil, err
		}
		seq, err := enc.EncodeSequence([]*video.Frame{frame})
		if err != nil {
			return nil, err
		}
		dec := mpeg.NewDecoder()
		out, err := dec.Decode(seq.Data)
		if err != nil {
			return nil, err
		}
		psnr, err := video.PSNR(frame, out.Frames[0])
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantRow{Scale: scale, Bits: seq.Pictures[0].Bits, PSNRdB: psnr})
	}
	return rows, nil
}

// PipelineResult is the end-to-end experiment (Ext E): a real coded
// stream from the internal MPEG encoder, inspected, smoothed, verified.
type PipelineResult struct {
	Pictures            int
	StreamBits          int64
	IMean, PMean, BMean float64
	Measures            metrics.Measures
	MaxDelay            float64
	UnsmoothedPeak      float64
	SmoothedPeak        float64
}

// ExtE encodes synthetic Driving-like video with the simplified MPEG
// codec, extracts the per-picture sizes by stream inspection, smooths
// them, and reports the measures.
func ExtE(width, height, frames int, seed int64) (*PipelineResult, error) {
	synth, err := video.NewSynthesizer(video.DrivingScript(width, height, frames, seed))
	if err != nil {
		return nil, err
	}
	var vf []*video.Frame
	for !synth.Done() {
		vf = append(vf, synth.Next())
	}
	gop := mpeg.GOP{M: 3, N: 9}
	enc, err := mpeg.NewEncoder(mpeg.DefaultConfig(width, height, gop))
	if err != nil {
		return nil, err
	}
	seq, err := enc.EncodeSequence(vf)
	if err != nil {
		return nil, err
	}
	info, err := mpeg.Inspect(seq.Data)
	if err != nil {
		return nil, err
	}
	sizes, err := info.SizesInDisplayOrder()
	if err != nil {
		return nil, err
	}
	tr, err := trace.FromPictureSizes("encoded", 1.0/30, gop, sizes)
	if err != nil {
		return nil, err
	}
	m, s, err := MeasuresFor(tr, core.Config{K: 1, H: gop.N, D: 0.2})
	if err != nil {
		return nil, err
	}
	st := tr.Stats()
	res := &PipelineResult{
		Pictures:       tr.Len(),
		StreamBits:     int64(len(seq.Data)) * 8,
		IMean:          st[mpeg.TypeI].Mean,
		PMean:          st[mpeg.TypeP].Mean,
		BMean:          st[mpeg.TypeB].Mean,
		Measures:       m,
		MaxDelay:       s.MaxDelay(),
		UnsmoothedPeak: tr.PeakPictureRate(),
	}
	rf, err := s.RateFunc()
	if err != nil {
		return nil, err
	}
	res.SmoothedPeak = rf.Max()
	return res, nil
}

// ScaleRow is one point of the thousand-stream statistical-multiplexing
// experiment (Ext J): the admissible load (link utilization at which the
// loss target is just met) for raw vs smoothed video at one multiplexing
// level and delay bound.
type ScaleRow struct {
	Streams int
	D       float64
	// LossTarget is the cell-loss probability the admission is sized to.
	LossTarget float64
	// RawLoad and SmoothedLoad are aggregate-mean-rate/link-capacity at
	// the smallest capacity meeting the loss target (higher = better).
	RawLoad      float64
	SmoothedLoad float64
	// Gain is SmoothedLoad/RawLoad: the admissible-load multiplier that
	// smoothing to delay bound D buys at this scale.
	Gain float64
	// Events is the number of engine events the smoothed bisection's
	// final run fired (the cost of one fluid evaluation at this scale).
	Events int
}

// ExtJConfig parameterizes Ext J.
type ExtJConfig struct {
	// Streams lists the multiplexing levels to evaluate (default
	// 1000, 3000, 10000).
	Streams []int
	// Ds lists the smoothing delay bounds to evaluate (default
	// 0.0667, 0.1333, 0.2667).
	Ds []float64
	// LossTarget is the admission loss criterion (default 1e-3).
	LossTarget float64
	// BisectIters bounds the capacity bisection (default 9: capacity
	// resolved to ~0.2% of the search interval).
	BisectIters int
	// Seed drives trace generation, offsets, and the LRD background.
	Seed int64
}

func (c *ExtJConfig) setDefaults() {
	if len(c.Streams) == 0 {
		c.Streams = []int{1000, 3000, 10000}
	}
	if len(c.Ds) == 0 {
		c.Ds = []float64{0.0667, 0.1333, 0.2667}
	}
	if c.LossTarget == 0 {
		c.LossTarget = 1e-3
	}
	if c.BisectIters == 0 {
		c.BisectIters = 9
	}
}

// stepMean is the time-average of a rate function over [Times[0], End).
func stepMean(f *metrics.StepFunc) float64 {
	var area float64
	for i, t := range f.Times {
		end := f.End
		if i+1 < len(f.Times) {
			end = f.Times[i+1]
		}
		area += f.Values[i] * (end - t)
	}
	span := f.End - f.Times[0]
	if span <= 0 {
		return 0
	}
	return area / span
}

// extJPoolSize is the number of distinct video traces Ext J replicates
// across the stream population (distinct seeds; phases decorrelated per
// stream by offset).
const extJPoolSize = 64

// ExtJ runs the large-scale statistical-multiplexing experiment on the
// fluid engine: n video streams (raw vs smoothed to delay bound D) plus
// ~10% long-range-dependent on/off-Pareto background connections behind
// dual-rate token-bucket shapers share one finite-buffer link. For each
// (n, D) it bisects the link capacity to the smallest value meeting the
// loss target and reports the admissible load — the utilization an
// admission controller could run the link at. The smoothing gain of the
// paper's motivation experiment, measured where it matters: at
// thousands of multiplexed sources, a scale the per-cell simulator
// cannot reach.
func ExtJ(cfg ExtJConfig) ([]ScaleRow, error) {
	cfg.setDefaults()
	// Trace pool: distinct single-scene sources, smoothed once per D.
	var pool []*trace.Trace
	raws := make([]*metrics.StepFunc, extJPoolSize)
	smooths := make(map[float64][]*metrics.StepFunc, len(cfg.Ds))
	for i := 0; i < extJPoolSize; i++ {
		tr, err := trace.Generate(trace.SynthConfig{
			Name:  fmt.Sprintf("scale-%d", i),
			GOP:   mpeg.GOP{M: 3, N: 9},
			IBase: 210_000, PBase: 95_000, BBase: 32_000,
			Scenes: []trace.ScenePhase{{Pictures: 270, Complexity: 1, Motion: 0.9}},
			Seed:   cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		pool = append(pool, tr)
		if raws[i], err = rawRate(tr); err != nil {
			return nil, err
		}
	}
	for _, d := range cfg.Ds {
		fns := make([]*metrics.StepFunc, extJPoolSize)
		for i, tr := range pool {
			s, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: d})
			if err != nil {
				return nil, err
			}
			if fns[i], err = s.RateFunc(); err != nil {
				return nil, err
			}
		}
		smooths[d] = fns
	}
	duration := pool[0].Duration()

	var rows []ScaleRow
	for _, n := range cfg.Streams {
		if n < extJPoolSize {
			return nil, fmt.Errorf("experiments: %d streams below pool size %d", n, extJPoolSize)
		}
		// Per-level RNG: stream offsets and background sources are a
		// deterministic function of (seed, n) only, so adding levels to
		// cfg.Streams never perturbs existing rows.
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(n)*0x9e3779b9))
		nBg := n / 10
		nVideo := n - nBg
		offsets := make([]float64, nVideo)
		for i := range offsets {
			offsets[i] = rng.Float64() * 3
		}
		// LRD background: on/off-Pareto connections behind dual-rate
		// token-bucket shapers (limited-bandwidth access links).
		bgPeak := 2 * stepMean(raws[0])
		background := make([]netsim.FluidStream, nBg)
		var meanBg float64
		for i := range background {
			bg, err := trace.OnOffPareto(trace.OnOffParetoConfig{
				PeakRate: bgPeak, MeanOn: 0.3, MeanOff: 0.7,
				Duration: duration, Seed: rng.Int63(),
			})
			if err != nil {
				return nil, err
			}
			background[i] = netsim.FluidStream{
				Rate:   bg,
				Offset: rng.Float64() * 3,
				Shaper: &netsim.ShaperConfig{
					Sustained: 0.6 * bgPeak,
					Peak:      bgPeak,
					BurstBits: 0.05 * bgPeak,
				},
			}
			meanBg += stepMean(bg)
		}
		evaluate := func(fns []*metrics.StepFunc, link float64) (*netsim.FluidResult, error) {
			streams := make([]netsim.FluidStream, 0, n)
			for i := 0; i < nVideo; i++ {
				streams = append(streams, netsim.FluidStream{
					Rate: fns[i%extJPoolSize], Offset: offsets[i],
				})
			}
			streams = append(streams, background...)
			return netsim.RunFluid(netsim.FluidConfig{
				Streams:     streams,
				LinkRate:    link,
				BufferCells: 2 * n, // constant per-stream buffering across levels
			})
		}
		// Admissible capacity: exponential search up from the aggregate
		// mean until the loss target is met, then bisect. Growing the
		// bracket from the mean (rather than starting at the aggregate
		// peak) keeps the capacity resolution proportional to the answer,
		// and identical across raw and smoothed — the admissible-load gap
		// between them is small at high multiplexing levels, and a
		// variant-dependent bracket width would drown it in search error.
		admissible := func(fns []*metrics.StepFunc) (load float64, events int, err error) {
			var meanAgg, peakAgg float64
			for i := 0; i < nVideo; i++ {
				meanAgg += stepMean(fns[i%extJPoolSize])
				peakAgg += fns[i%extJPoolSize].Max()
			}
			meanAgg += meanBg
			peakAgg += float64(nBg) * bgPeak
			lossAt := func(link float64) (float64, error) {
				res, err := evaluate(fns, link)
				if err != nil {
					return 0, err
				}
				events = res.Events
				return res.LossProbability(), nil
			}
			lo, hi := meanAgg, meanAgg
			for step := meanAgg * 0.02; hi < peakAgg; step *= 2 {
				hi = lo + step
				if hi >= peakAgg {
					hi = peakAgg // loss is certainly zero here
					break
				}
				p, err := lossAt(hi)
				if err != nil {
					return 0, 0, err
				}
				if p <= cfg.LossTarget {
					break
				}
				lo = hi
			}
			for it := 0; it < cfg.BisectIters; it++ {
				mid := (lo + hi) / 2
				p, err := lossAt(mid)
				if err != nil {
					return 0, 0, err
				}
				if p <= cfg.LossTarget {
					hi = mid
				} else {
					lo = mid
				}
			}
			return meanAgg / hi, events, nil
		}
		for _, d := range cfg.Ds {
			rawLoad, _, err := admissible(raws)
			if err != nil {
				return nil, err
			}
			smoothLoad, events, err := admissible(smooths[d])
			if err != nil {
				return nil, err
			}
			rows = append(rows, ScaleRow{
				Streams:      n,
				D:            d,
				LossTarget:   cfg.LossTarget,
				RawLoad:      rawLoad,
				SmoothedLoad: smoothLoad,
				Gain:         smoothLoad / rawLoad,
				Events:       events,
			})
		}
	}
	return rows, nil
}

// WriteScaleCSV renders Ext J rows in the results/extJ_scale.csv format.
// The CLI and the seeded-determinism test share this writer, so
// "byte-identical CSV" is a property of ExtJ itself, not of formatting.
func WriteScaleCSV(w io.Writer, rows []ScaleRow) error {
	if _, err := fmt.Fprintln(w, "streams,D_seconds,loss_target,raw_load,smoothed_load,admission_gain,fluid_events"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%.4f,%g,%.6f,%.6f,%.4f,%d\n",
			r.Streams, r.D, r.LossTarget, r.RawLoad, r.SmoothedLoad, r.Gain, r.Events); err != nil {
			return err
		}
	}
	return nil
}
