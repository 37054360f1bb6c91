package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nopower/internal/metrics"
	"nopower/internal/obs/prof"
	"nopower/internal/sim"
)

// Phases the step loop records besides each controller's name. A worker
// span carries the worker index as its shard.
const (
	phaseAdvance       = "cluster.advance"
	phaseAdvanceWorker = "cluster.advance.worker"
	phaseObserve       = "metrics.observe"
	phaseTick          = "tick"
	ctlWorkerSuffix    = ".worker"
)

// dispatcher runs per-unit work on up to workers goroutines, each claiming
// units from a shared counter as sim.Engine's shard pool does; which worker
// evaluates which unit never changes a result. Each worker's busy time is
// recorded as one span of phase at tick.
type dispatcher struct {
	workers int
	p       *prof.Profiler
	tick    int
	phase   string
}

func (d *dispatcher) run(n int, fn func(u int)) {
	w := min(d.workers, n)
	if w <= 1 {
		for u := 0; u < n; u++ {
			fn(u)
		}
		return
	}
	var next atomic.Int64
	work := func(i int) {
		start := d.p.Now()
		for {
			u := int(next.Add(1)) - 1
			if u >= n {
				break
			}
			fn(u)
		}
		d.p.Record(d.tick, d.phase, i, start, d.p.Now()-start)
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	work(0)
	wg.Wait()
}

// ctlTime is one controller's share of a traced run.
type ctlTime struct {
	epoch, total int64 // time on its epoch ticks; time on all ticks
	epochs       int
}

// layerTimes is one traced run split by layer, in nanoseconds.
type layerTimes struct {
	ticks    int
	run      int64 // the run span
	tickSum  int64 // Σ tick spans
	children int64 // Σ layer spans inside the ticks
	advance  int64
	observe  int64
	idle     int64 // every controller's passes on non-epoch ticks
	ctl      map[string]*ctlTime
}

// residual is the share of the run outside every layer span.
func (lt layerTimes) residual() float64 {
	if lt.run == 0 {
		return 0
	}
	return float64(lt.run-lt.children) / float64(lt.run)
}

// tracedRun runs ticks ticks of eng's stack and plant through the public API
// in the order sim.Engine.RunContext uses — each controller's Tick
// (TickShard over cl.Units() for a sim.ShardTicker when shards > 1), then
// cl.Advance or cl.AdvanceWith, then cl.Stats into the collector — and
// records every call into p. Stamps are contiguous: the end of one call
// starts the next, across tick boundaries too, so the layer spans tile the
// run and the loop's own bookkeeping lands in the span after it instead of
// in an unattributed gap. The engine only carries the built stack; its Run
// is never called, and the result must match an untraced eng.Run bit for
// bit.
func tracedRun(ctx context.Context, eng *sim.Engine, ticks, shards int, p *prof.Profiler, label string) (metrics.Result, layerTimes, error) {
	cl := eng.Cluster
	ctls := eng.Controllers
	col := &metrics.Collector{}
	d := &dispatcher{workers: shards, p: p}
	lt := layerTimes{ticks: ticks, ctl: make(map[string]*ctlTime)}
	periods := make([]int, len(ctls))
	times := make([]*ctlTime, len(ctls))
	for i, c := range ctls {
		periods[i] = 1
		if ep, ok := c.(sim.Epochal); ok && ep.EpochPeriod() > 1 {
			periods[i] = ep.EpochPeriod()
		}
		times[i] = &ctlTime{}
		lt.ctl[c.Name()] = times[i]
	}
	runStart := p.Now()
	t := runStart
	for k := 0; k < ticks; k++ {
		if err := ctx.Err(); err != nil {
			return metrics.Result{}, lt, fmt.Errorf("%s: stopped at tick %d: %w", label, k, err)
		}
		tickStart := t
		d.tick = k
		for i, c := range ctls {
			if st, ok := c.(sim.ShardTicker); ok && shards > 1 {
				units := cl.Units()
				d.phase = c.Name() + ctlWorkerSuffix
				d.run(len(units), func(u int) { st.TickShard(k, cl, units[u]) })
			} else {
				c.Tick(k, cl)
			}
			end := p.Now()
			p.Record(k, c.Name(), -1, t, end-t)
			dur := end - t
			times[i].total += dur
			if k%periods[i] == 0 {
				times[i].epoch += dur
				times[i].epochs++
			} else {
				lt.idle += dur
			}
			t = end
		}
		if shards > 1 {
			d.phase = phaseAdvanceWorker
			cl.AdvanceWith(k, d.run)
		} else {
			cl.Advance(k)
		}
		end := p.Now()
		p.Record(k, phaseAdvance, -1, t, end-t)
		lt.advance += end - t
		t = end

		col.ObserveStats(cl.Stats())
		end = p.Now()
		p.Record(k, phaseObserve, -1, t, end-t)
		lt.observe += end - t

		p.Record(k, phaseTick, -1, tickStart, end-tickStart)
		lt.tickSum += end - tickStart
		t = end
	}
	runEnd := p.Now()
	p.Record(0, label, -1, runStart, runEnd-runStart)
	lt.run = runEnd - runStart
	lt.children = lt.advance + lt.observe
	for _, c := range times {
		lt.children += c.total
	}
	return col.Finalize(0), lt, nil
}

// controllerKeys maps controller names to metric prefixes.
var controllerKeys = map[string]string{
	"EC": "ec", "SM": "sm", "EM": "em", "GM": "gm", "VMC": "vmc", "FM": "fm", "COOL": "cooling",
}

// layerMetrics turns one traced run into per-layer metrics (and the
// controller extras). A controller missing from the stack reads 0.
func layerMetrics(lt layerTimes) map[string]float64 {
	perTick := func(ns int64) float64 { return float64(ns) / float64(lt.ticks) }
	m := map[string]float64{
		"cluster.advance_ms_per_tick": perTick(lt.advance) / 1e6,
		"ctl.idle_us_per_tick":        perTick(lt.idle) / 1e3,
		"metrics.observe_us_per_tick": perTick(lt.observe) / 1e3,
		"trace.residual_share":        lt.residual(),
	}
	for name, key := range controllerKeys {
		c := lt.ctl[name]
		perEpoch, share := 0.0, 0.0
		if c != nil && c.epochs > 0 {
			perEpoch = float64(c.epoch) / 1e6 / float64(c.epochs)
		}
		if c != nil && lt.tickSum > 0 {
			share = float64(c.total) / float64(lt.tickSum)
		}
		switch key {
		case "ec":
			m["ec.ms_per_tick"] = perEpoch // the EC's epoch is every tick
		case "vmc", "fm", "cooling":
			m[key+".ms_per_epoch"] = perEpoch
			m[key+".share_of_tick"] = share
		default:
			m[key+".ms_per_epoch"] = perEpoch
		}
	}
	return m
}
