// A13 — multicore raw-speed sweep. Every other ablation measures
// mechanism against mechanism at whatever parallelism the host gives
// it; this one pins GOMAXPROCS and sweeps it, measuring four hot paths
// — bulk fills (against the scalar Fill loop), publish+poll over RMI,
// RMI round trips, and pooled poll-frame decodes. The rows
// are only as honest as the host: a 1-CPU container produces a single
// Procs=1 row and no scaling claim (the BENCH env block records the
// hardware for exactly this reason).
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard"
)

// McoreRow is one GOMAXPROCS setting's outcome across the four paths.
type McoreRow struct {
	Procs int

	// Bulk fills: aggregate samples/s across Procs goroutines filling
	// private histograms, batched (FillN) vs scalar (Fill) loops.
	FillNPerSec  float64
	ScalarPerSec float64

	// Publish+poll fabric: aggregate operations/s (publishes + polls)
	// against a sharded router over loopback RMI.
	PubPollOpsPerSec float64

	// RMI round trips: calls/s over loopback TCP.
	CallsPerSec float64

	// Poll-frame decode: heap allocations per wire-frame decode through
	// the pooled free list (0 in steady state).
	AllocsPerDecode float64
}

// MulticoreSweep measures one McoreRow per entry of procs (each capped
// to runtime.NumCPU so rows never report oversubscription as scaling).
// fills is the per-goroutine sample count for the fill paths; sessions/
// rounds/objects shape the publish+poll fabric load; calls is the
// per-mode RMI round-trip count.
func MulticoreSweep(procs []int, fills, sessions, rounds, objects, calls int) ([]McoreRow, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	seen := make(map[int]bool)
	var out []McoreRow
	for _, p := range procs {
		if p < 1 {
			p = 1
		}
		if p > runtime.NumCPU() {
			p = runtime.NumCPU()
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		runtime.GOMAXPROCS(p)
		row := McoreRow{Procs: p}
		// Single-shot rates on a busy shared host swing ±30%; run each
		// measurement three times and keep the medians.
		var fillns, scalars, pubPolls, callRates [reps]float64
		for i := 0; i < reps; i++ {
			fillns[i], scalars[i] = fillRates(p, fills)
			var err error
			if pubPolls[i], err = pubPollRate(p, sessions, rounds, objects); err != nil {
				return nil, err
			}
			if callRates[i], err = rmiCallRate(p, calls); err != nil {
				return nil, err
			}
		}
		row.FillNPerSec, row.ScalarPerSec = median(fillns), median(scalars)
		row.PubPollOpsPerSec = median(pubPolls)
		row.CallsPerSec = median(callRates)
		var err error
		if row.AllocsPerDecode, err = decodeAllocs(); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// reps is how many times each measurement repeats per row.
const reps = 3

func median(xs [reps]float64) float64 {
	s := append([]float64(nil), xs[:]...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// fillRates runs p goroutines, each filling a private histogram with
// `fills` samples, once through FillN (1024-sample batches) and once
// through the scalar Fill loop. Returns aggregate samples/s for each.
func fillRates(p, fills int) (filln, scalar float64) {
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = float64(i%120) - 10 // includes under/overflow traffic
	}
	run := func(bulk bool) float64 {
		done := make(chan struct{}, p)
		start := time.Now()
		for g := 0; g < p; g++ {
			go func() {
				h := aida.NewHistogram1D("h", "", 100, 0, 100)
				if bulk {
					for n := 0; n < fills; n += len(samples) {
						h.FillN(samples, nil)
					}
				} else {
					for n := 0; n < fills; n += len(samples) {
						for _, x := range samples {
							h.Fill(x)
						}
					}
				}
				done <- struct{}{}
			}()
		}
		for g := 0; g < p; g++ {
			<-done
		}
		secs := time.Since(start).Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		return float64(p*fills) / secs
	}
	return run(true), run(false)
}

// pubPollRate drives `sessions` concurrent sessions — each one
// delta-publishing engine plus an incremental poll per round — against
// a sharded router served over loopback RMI (the deployment shape:
// engines reach the merge fabric through a shared pipelined
// connection). Returns aggregate (publishes+polls)/s.
func pubPollRate(p, sessions, rounds, objects int) (float64, error) {
	router := shard.NewRouter(0)
	shards := p
	if shards < 1 {
		shards = 1
	}
	for i := 0; i < shards; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			return 0, err
		}
	}
	srv := rmi.NewServer(nil)
	if err := srv.Register(merge.RMIObjectName, router); err != nil {
		return 0, err
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	client, err := rmi.Dial(addr.String(), "tok")
	if err != nil {
		return 0, err
	}
	defer client.Close()
	pub := merge.NewRemotePublisher(client, "")
	errs := make(chan error, sessions)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("sess-%02d", s)
		go func() {
			tree := aida.NewTree()
			hists := make([]*aida.Histogram1D, objects)
			for o := range hists {
				h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
				if err != nil {
					errs <- err
					return
				}
				for f := 0; f < 200; f++ {
					h.Fill(float64(f % 100))
				}
				hists[o] = h
			}
			tr := merge.NewTransport(sid, "w0", pub)
			var since int64
			for r := 0; r < rounds; r++ {
				hists[r%objects].Fill(float64(r % 100))
				_, err := tr.Send(func(full bool) (merge.Snapshot, error) {
					var d *aida.DeltaState
					var err error
					if full {
						d, err = tree.FullDelta()
					} else {
						d, err = tree.Delta()
					}
					return merge.Snapshot{Delta: d}, err
				})
				if err != nil {
					errs <- err
					return
				}
				var poll merge.PollReply
				if err := client.Call(merge.RMIObjectName+".Poll",
					merge.PollArgs{SessionID: sid, SinceVersion: since}, &poll); err != nil {
					errs <- err
					return
				}
				since = poll.Version
				poll.Release()
			}
			errs <- nil
		}()
	}
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return float64(2*sessions*rounds) / secs, nil
}

// rmiCallRate measures quiescent-poll round trips/s over loopback with
// p concurrent callers sharing one pipelined connection.
func rmiCallRate(p, calls int) (float64, error) {
	mgr := merge.NewManager()
	tree := aida.NewTree()
	h, err := tree.H1D("/a", "h", "", 100, 0, 100)
	if err != nil {
		return 0, err
	}
	for f := 0; f < 500; f++ {
		h.Fill(float64(f % 100))
	}
	d, err := tree.FullDelta()
	if err != nil {
		return 0, err
	}
	var rep merge.PublishReply
	if err := mgr.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		return 0, err
	}
	srv := rmi.NewServer(nil)
	if err := srv.Register(merge.RMIObjectName, mgr); err != nil {
		return 0, err
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	client, err := rmi.Dial(addr.String(), "tok")
	if err != nil {
		return 0, err
	}
	defer client.Close()
	errs := make(chan error, p)
	start := time.Now()
	for c := 0; c < p; c++ {
		go func() {
			for i := 0; i < calls; i++ {
				var reply merge.PollReply
				if err := client.Call(merge.RMIObjectName+".Poll", merge.PollArgs{
					SessionID: "s", SinceVersion: rep.Version,
				}, &reply); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < p; c++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return float64(p*calls) / secs, nil
}

// decodeAllocs measures heap allocations per wire-frame decode (the
// client side of a warm poll). Steady state is allocation-free: the
// decode copies into a recycled buffer and Release returns it.
func decodeAllocs() (float64, error) {
	h := aida.NewHistogram1D("h", "", 100, 0, 100)
	for f := 0; f < 1000; f++ {
		h.Fill(float64(f % 100))
	}
	st, err := aida.StateOf(h)
	if err != nil {
		return 0, err
	}
	frame, err := aida.EncodeObjectFrame(&st)
	if err != nil {
		return 0, err
	}
	raw := append([]byte(nil), frame...)
	// Warm the free list so the measurement sees steady state.
	var f aida.ObjectFrame
	for i := 0; i < 16; i++ {
		f.GobDecode(raw)
		f.Release()
	}
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f.GobDecode(raw)
		f.Release()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, nil
}
