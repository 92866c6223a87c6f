package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"mpegsmooth/internal/cluster"
	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/transport"
)

// counters are the program's own counters, read once a pass has
// drained and before its deployment is torn down.
type counters struct {
	snap             server.Snapshot
	cluster          *cluster.ReplStatus // primary's view; nil standalone
	srvPkts, cliPkts faultnet.PacketCounts
}

func (p *pass) sample() {
	e := p.e
	if srv := e.server(); srv != nil {
		p.final.snap = srv.Snapshot()
	}
	if e.primary != nil {
		st := e.primary.Status().Replication
		p.final.cluster = &st
	}
	if e.srvNet != nil {
		p.final.srvPkts, p.final.cliPkts = e.srvNet.Counts(), e.cliNet.Counts()
	}
}

// watchCluster samples the primary's follower ack lag until stop closes.
func (p *pass) watchCluster(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, lag := range p.e.primary.Status().Replication.AckLagRecords {
				p.ackLagMax = max(p.ackLagMax, lag)
			}
		}
	}
}

func durationsMS(spans []span) dist {
	d := make(dist, len(spans))
	for i, s := range spans {
		d[i] = float64(s.iv.end-s.iv.start) / 1e6
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer computes the traced pass's per-layer metrics from the spans
// and samples the tracer kept and the program's own counters.
func (p *pass) perLayer() report {
	e, t := p.e, p.e.tracer
	o := p.outcome()
	pics, streams := float64(o.pictures), float64(len(o.measured))
	var r report

	var blocked time.Duration
	var writes int64
	for _, rec := range o.measured {
		blocked += rec.writeBlocked
		writes += rec.writes
		t.add(span{kind: spanStream, node: nodeClient, id: rec.id, iv: interval{t.ns(rec.helloAt), t.ns(rec.endAt)}})
		if !rec.verdictAt.IsZero() {
			t.add(span{kind: spanAdmit, node: nodeClient, id: rec.id, iv: interval{t.ns(rec.helloAt), t.ns(rec.verdictAt)}})
		}
	}
	r.add("transport.client_write_blocked_ms_per_stream", ratio(ms(blocked), streams), "ms", len(o.measured))
	r.add("transport.client_writes_per_picture", ratio(float64(writes), pics), "count", o.pictures)

	syncs, fsWrites := t.spansOf(spanSync, nodePrimary), t.spansOf(spanWrite, nodePrimary)
	r.add("journal.fsyncs_per_stream", ratio(float64(len(syncs)), streams), "count", len(syncs))
	r.addDist("journal.fsync_ms", durationsMS(syncs), "ms")
	if js := p.final.snap.Journal; js != nil {
		r.add("journal.records_per_batch", ratio(float64(js.CommitBatchRecords), float64(js.CommitBatches)), "count", int(js.CommitBatches))
	} else {
		r.add("journal.records_per_batch", 0, "count", 0)
	}
	var written int64
	for _, s := range fsWrites {
		written += s.bytes
	}
	r.add("journal.write_bytes_per_picture", ratio(float64(written), pics), "B", len(fsWrites))
	fsyncs := t.spansOf(spanSync, nodeFollower)
	r.add("follower.fsyncs_per_stream", ratio(float64(len(fsyncs)), streams), "count", len(fsyncs))
	r.addP99("follower.fsync_ms.p99", durationsMS(fsyncs).summarize(), "ms")

	// Quorum wait: the part of hello→verdict that no primary journal
	// write or fsync covers.
	cover := newCoverIndex(ivs(append(syncs, fsWrites...)))
	var wait dist
	for _, s := range t.spansOf(spanAdmit, nodeClient) {
		wait = append(wait, float64(cover.selfTime(s.iv))/1e6)
	}
	r.addDist("cluster.quorum_wait_ms", wait, "ms")
	if c := p.final.cluster; c != nil {
		r.add("cluster.local_commit_share", ratio(float64(c.LocalCommits), float64(c.LocalCommits+c.QuorumCommits)), "ratio", int(c.LocalCommits+c.QuorumCommits))
	} else {
		r.add("cluster.local_commit_share", 0, "ratio", 0)
	}
	r.add("cluster.ack_lag_records.max", float64(p.ackLagMax), "count", 1)

	sinkWrites, _, _ := e.sink.snapshot()
	r.add("egress.sleeps_per_picture", ratio(float64(t.egressSleeps.Load()), pics), "count", o.pictures)
	r.add("egress.writes_per_picture", ratio(float64(sinkWrites-p.sinkWrites0), pics), "count", o.pictures)
	t.mu.Lock()
	over, late := dist(t.oversleepUS), dist(t.latenessMS)
	t.mu.Unlock()
	r.addDist("egress.oversleep_us", over, "us")
	r.addDist("egress.slip_ms", p.slip, "ms")
	r.add("server.promised_delay_violations", float64(p.final.snap.DelayViolations), "count", int(p.final.snap.Streams.Completed))

	var dg transport.DGStats
	var packets int64
	resumes := 0
	for _, rec := range o.measured {
		resumes += rec.resumes
		packets += rec.packets.Load()
		for _, c := range rec.dgconns {
			s := c.Stats()
			dg.Sent += s.Sent
			dg.Retransmits += s.Retransmits
			dg.FastRetransmits += s.FastRetransmits
		}
	}
	retx := float64(dg.Retransmits + dg.FastRetransmits)
	r.add("dgram.retransmits_per_sent", ratio(retx, float64(dg.Sent)), "ratio", int(dg.Sent))
	r.add("dgram.fast_retransmit_share", ratio(float64(dg.FastRetransmits), retx), "ratio", int(retx))
	r.add("dgram.resumes_per_stream", ratio(float64(resumes), streams), "count", len(o.measured))
	sp, cp := p.final.srvPkts, p.final.cliPkts
	dropped := sp.Dropped + sp.BurstDropped + sp.FadeDropped + cp.Dropped + cp.BurstDropped + cp.FadeDropped
	r.add("dgram.channel_drop_rate", ratio(float64(dropped), float64(sp.Packets+cp.Packets)), "ratio", int(sp.Packets+cp.Packets))
	r.add("dgram.packets_per_picture", ratio(float64(packets), pics), "count", o.pictures)

	ctxsw := (p.usage1.Nvcsw + p.usage1.Nivcsw) - (p.usage0.Nvcsw + p.usage0.Nivcsw)
	r.add("proc.ctxsw_per_picture", ratio(float64(ctxsw), pics), "count", o.pictures)
	r.add("proc.alloc_bytes_per_picture", ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), pics), "B", o.pictures)
	r.add("proc.gc_per_s", float64(p.mem1.NumGC-p.mem0.NumGC)/p.end.Sub(p.window).Seconds(), "1/s", int(p.mem1.NumGC-p.mem0.NumGC))

	r.addP99("gen.lateness_ms.p99", late.summarize(), "ms")
	return r
}

func ivs(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = s.iv
	}
	return out
}

// tracedRun measures the workload untraced and then traced with the same
// seed, reports the traced pass's per-layer metrics, the stage-replay
// probes, and each end-to-end metric's traced/untraced ratio.
func tracedRun(out io.Writer, w *workload, seed int64, dir, workdir string, seconds float64) (report, []string, outcome, string, error) {
	var (
		o    outcome
		errs []string
	)
	// keep folds a finished pass into the run's gate and counts; the
	// pass itself is then dropped, so its records do not enlarge the
	// heap (and slow the GC) under the passes that follow.
	keep := func(p *pass) {
		po := p.outcome()
		o.attempted += po.attempted
		o.failed += po.failed
		errs = append(errs, p.errs...)
	}
	pa, setupA, err := runPass(w, seed, dir, false, 1, seconds)
	if err != nil {
		return nil, nil, o, "", err
	}
	keep(pa)
	untraced := pa.endToEnd(setupA)
	pa = nil
	pb, setupB, err := runPass(w, seed, dir, true, 1, seconds)
	if err != nil {
		return nil, nil, o, "", err
	}
	keep(pb)
	traced := pb.endToEnd(setupB)
	layers := pb.perLayer()
	for _, m := range untraced {
		if unbounded[m.Name] && m.Name != "failed_frac" {
			layers = append(layers, m)
		}
	}
	probes, err := runProbes(pb.e)
	if err != nil {
		return nil, nil, o, "", fmt.Errorf("stage probes: %w", err)
	}
	layers = append(layers, probes...)

	fmt.Fprintf(out, "# %s tracing overhead (same seed, traced / untraced)\n", w.name)
	fmt.Fprintf(out, "# %-24s %14s %14s %8s\n", "metric", "untraced", "traced", "ratio")
	for _, u := range untraced {
		if u.Name == "failed_frac" {
			continue
		}
		tm := traced.get(u.Name)
		fmt.Fprintf(out, "# %-24s %14.6g %14.6g %8.3f\n", u.Name, u.Value, tm.Value, ratio(tm.Value, u.Value))
		layers.add("overhead."+u.Name, ratio(tm.Value, u.Value), "ratio", tm.N)
	}

	path := filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.csv", w.name, seed))
	if err := pb.e.tracer.writeSpans(path); err != nil {
		return nil, nil, o, "", fmt.Errorf("writing spans: %w", err)
	}
	return layers, errs, o, path, nil
}
