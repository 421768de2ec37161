package main

import (
	"fmt"
	"io"
	"math"
)

// ledgerTolerance is how far the ledger's parts may sum away from the
// measured durable latency of an iteration: 2% of it plus 20µs of clock
// granularity. The parts are measured by different spans (the persist call,
// its store children and the clients' EndIteration calls), so a larger gap
// means overlapping or missing spans.
const (
	ledgerTolFrac = 0.02
	ledgerTolNs   = 20_000
)

// ledgerRow is one timed iteration's path on its slowest dedicated core.
type ledgerRow struct {
	handoff, encode, create, write, commit, durable int64 // ns
}

func (l ledgerRow) sum() int64 { return l.handoff + l.encode + l.create + l.write + l.commit }

// children maps each persist span to the store spans made inside it: same
// dedicated core, same first iteration, starting within the call.
func children(spans []span) map[int][]int {
	type key struct {
		srv int
		it  int64
	}
	calls := map[key][]int{}
	for i, s := range spans {
		if s.Kind == kindPersist {
			k := key{s.Server, s.It}
			calls[k] = append(calls[k], i)
		}
	}
	out := map[int][]int{}
	for i, s := range spans {
		if s.Kind != kindCreate && s.Kind != kindSWrite && s.Kind != kindCommit {
			continue
		}
		for _, c := range calls[key{s.Server, s.It}] {
			if p := spans[c]; s.Start >= p.Start && s.Start <= p.End {
				out[c] = append(out[c], i)
				break
			}
		}
	}
	return out
}

// callParts splits one persist call into its store children and the self
// time left over (encoding and DSF framing): the call's duration minus the
// part of it the children cover.
func callParts(spans []span, p span, kids []int) (self, create, write, commit int64) {
	var ivs []interval
	for _, k := range kids {
		s := spans[k]
		ivs = append(ivs, interval{s.Start, s.End})
		switch s.Kind {
		case kindCreate:
			create += s.dur()
		case kindSWrite:
			write += s.dur()
		case kindCommit:
			commit += s.dur()
		}
	}
	return p.dur() - covered(ivs, p.Start, p.End), create, write, commit
}

// ledger builds the per-iteration rows of a traced repetition.
func ledger(r *repResult, a *analysis, kids map[int][]int) []ledgerRow {
	rows := make([]ledgerRow, len(a.critical))
	for i, c := range a.critical {
		p := r.spans[c]
		self, create, write, commit := callParts(r.spans, p, kids[c])
		rows[i] = ledgerRow{handoff: p.Start - a.critLast[i], encode: self, create: create,
			write: write, commit: commit, durable: p.End - a.critLast[i]}
	}
	return rows
}

// unreconciled counts rows whose parts miss the durable latency by more
// than the tolerance, and returns the largest miss.
func unreconciled(rows []ledgerRow) (n int, worst int64) {
	for _, l := range rows {
		miss := l.sum() - l.durable
		if miss < 0 {
			miss = -miss
		}
		if miss > worst {
			worst = miss
		}
		if float64(miss) > ledgerTolFrac*float64(l.durable)+ledgerTolNs {
			n++
		}
	}
	return n, worst
}

func printLedger(out io.Writer, rows []ledgerRow) {
	col := func(f func(ledgerRow) int64) (p50, mean float64) {
		xs := make([]float64, len(rows))
		for i, l := range rows {
			xs[i] = ms(f(l))
		}
		return quantile(xs, 0.5), sum(xs) / math.Max(1, float64(len(xs)))
	}
	fmt.Fprintf(out, "ledger (%d timed iterations, slowest dedicated core each; means add up, medians need not):\n", len(rows))
	parts := []struct {
		name string
		f    func(ledgerRow) int64
	}{
		{"handoff (event loop, tally, queue)", func(l ledgerRow) int64 { return l.handoff }},
		{"encode self (persist - store calls)", func(l ledgerRow) int64 { return l.encode }},
		{"store create", func(l ledgerRow) int64 { return l.create }},
		{"store write", func(l ledgerRow) int64 { return l.write }},
		{"store commit", func(l ledgerRow) int64 { return l.commit }},
		{"= sum of parts", ledgerRow.sum},
		{"durable (measured)", func(l ledgerRow) int64 { return l.durable }},
	}
	for _, p := range parts {
		p50, mean := col(p.f)
		fmt.Fprintf(out, "  %-38s p50 %9.3f ms  mean %9.3f ms\n", p.name, p50, mean)
	}
	n, worst := unreconciled(rows)
	fmt.Fprintf(out, "  reconciliation: %d of %d iterations off by more than %.0f%% + %dus (largest miss %.3f ms)\n",
		n, len(rows), ledgerTolFrac*100, ledgerTolNs/1000, ms(worst))
}

// perLayer computes the per-layer metrics of a traced repetition.
// untracedSteps is steps_per_s of the untraced repetition on the same
// inputs, for the tracing overhead; opFail is the run's failure share.
func perLayer(r *repResult, a *analysis, kids map[int][]int, untracedSteps, opFail float64) []metric {
	var steps, writeUs, endMs []float64
	var writeNs, writeBytes, endNs int64
	for _, c := range r.clients {
		for _, s := range c.spans {
			if s.It < int64(r.warm) {
				continue
			}
			switch s.Kind {
			case kindStep:
				steps = append(steps, ms(s.dur()))
			case kindWrite:
				writeUs = append(writeUs, float64(s.dur())/1e3)
				writeNs += s.dur()
				writeBytes += s.Bytes
			case kindEnd:
				endMs = append(endMs, ms(s.dur()))
				endNs += s.dur()
			}
		}
	}

	var persistMs, createMs, commitMs []float64
	var calls, iters, commits int
	var selfNs, storeWriteNs, rawBytes, persistNs int64
	for i, p := range r.spans {
		if p.Kind != kindPersist || p.It < int64(r.warm) {
			continue
		}
		calls++
		iters += len(p.Its)
		persistMs = append(persistMs, ms(p.dur()))
		persistNs += p.dur()
		rawBytes += p.Bytes
		self, _, write, _ := callParts(r.spans, p, kids[i])
		selfNs += self
		storeWriteNs += write
		for _, k := range kids[i] {
			switch s := r.spans[k]; s.Kind {
			case kindCreate:
				createMs = append(createMs, ms(s.dur()))
			case kindCommit:
				commitMs = append(commitMs, ms(s.dur()))
				commits++
			}
		}
	}

	var handoff []float64
	for i, c := range a.critical {
		handoff = append(handoff, ms(r.spans[c].Start-a.critLast[i]))
	}

	n := float64(len(r.servers))
	var loopBusy, loops, steals, pipeBusy, writers, window, encUtil float64
	var spilled, replayed, decisions, resizes, vetoes float64
	wall := float64(a.lastDur-r.tStart) / 1e9
	for _, s := range r.servers {
		ps := s.stats
		for _, sh := range ps.Shards {
			loopBusy += sh.BusyFraction
			loops++
			steals += float64(sh.Steals)
		}
		if ps.Workers > 0 {
			pipeBusy += ps.Utilization
		}
		writers += float64(ps.Workers)
		window += float64(ps.Window)
		encUtil += ps.Encode.Utilization
		spilled += float64(ps.Spill.Spilled)
		replayed += float64(ps.Spill.Replayed)
		decisions += float64(ps.Control.Decisions)
		resizes += float64(ps.Control.Resizes)
		vetoes += float64(ps.Control.BudgetVetoes + ps.Control.DegradedDecisions)
	}
	pipeBusy = ratio(pipeBusy, n, 0)
	if writers == 0 {
		// Synchronous baseline: the event loop is each core's only writer.
		pipeBusy = ratio(float64(persistNs)/1e9, wall*n, 0)
	}
	st := r.storeStats
	return []metric{
		{"cm1.step_p50_ms", quantile(steps, 0.5), "ms"},
		{"client.write_call_p50_us", quantile(writeUs, 0.5), "us"},
		{"client.write_call_p99_us", quantile(writeUs, 0.99), "us"},
		{"client.write_calls", float64(len(writeUs)), "count"},
		{"client.copy_gb_s", ratio(float64(writeBytes)/1e9, float64(writeNs)/1e9, 0), "GB/s"},
		{"client.end_wait_p50_ms", quantile(endMs, 0.5), "ms"},
		{"client.end_wait_p99_ms", quantile(endMs, 0.99), "ms"},
		{"client.end_wait_share", ratio(float64(endNs), float64(endNs+writeNs), 0), "ratio"},
		{"event.handoff_p50_ms", quantile(handoff, 0.5), "ms"},
		{"event.handoff_p90_ms", quantile(handoff, 0.9), "ms"},
		{"event.loop_busy_frac", ratio(loopBusy, loops, 0), "ratio"},
		{"event.steals", steals, "count"},
		{"pipeline.persist_p50_ms", quantile(persistMs, 0.5), "ms"},
		{"pipeline.persist_p90_ms", quantile(persistMs, 0.9), "ms"},
		{"pipeline.persist_calls", float64(calls), "count"},
		{"pipeline.iters_per_call", ratio(float64(iters), float64(calls), 0), "ratio"},
		{"pipeline.busy_frac", pipeBusy, "ratio"},
		{"pipeline.writers_final", ratio(writers, n, 0), "count"},
		{"pipeline.window_final", ratio(window, n, 0), "count"},
		{"dsf.encode_self_ms_per_iter", ratio(ms(selfNs), float64(iters), 0), "ms"},
		{"dsf.encode_mb_s", ratio(float64(rawBytes)/1e6, float64(selfNs)/1e9, 0), "MB/s"},
		{"dsf.encode_pool_util", ratio(encUtil, n, 0), "ratio"},
		{"store.create_p50_ms", quantile(createMs, 0.5), "ms"},
		{"store.write_ms_per_iter", ratio(ms(storeWriteNs), float64(iters), 0), "ms"},
		{"store.commit_p50_ms", quantile(commitMs, 0.5), "ms"},
		{"store.commit_p90_ms", quantile(commitMs, 0.9), "ms"},
		{"store.objects_per_iter", ratio(float64(commits), float64(iters), 0), "ratio"},
		{"store.puts", float64(st.Puts), "count"},
		{"store.put_failures", float64(st.Failures), "count"},
		{"store.retries", float64(st.Retries), "count"},
		{"store.backoff_s", st.BackoffSeconds, "s"},
		{"store.put_timeouts", float64(st.PutTimeouts), "count"},
		{"store.hedges", float64(st.Hedges), "count"},
		{"store.put_success_frac", ratio(float64(st.Puts), float64(st.Puts+st.Failures), 1), "ratio"},
		{"spill.spilled", spilled, "count"},
		{"spill.replayed", replayed, "count"},
		{"control.decisions", decisions, "count"},
		{"control.resizes", resizes, "count"},
		{"control.vetoes", vetoes, "count"},
		{"trace.overhead_frac", 1 - ratio(r.stepsPerSecond(), untracedSteps, 1), "ratio"},
		{"op_fail_frac", opFail, "ratio"},
	}
}
