// Telemetry hooks for the RMI layer: per-method call latency on both
// ends, connection counts, dial retries, handler panics, and
// injected-fault counts. Recording is a handful of atomics per call and
// collapses to nothing under the obs ablation switch.

package rmi

import (
	"sync"

	"github.com/ipa-grid/ipa/internal/obs"
)

var (
	clientConns = obs.GetCounter("ipa_rmi_client_connects_total",
		"RMI client connections established.")
	serverConns = obs.GetCounter("ipa_rmi_server_connects_total",
		"RMI server connections accepted.")
	handlerPanics = obs.GetCounter("ipa_rmi_handler_panics_total",
		"RMI handler panics turned into error replies.")
	dialRetries = obs.GetCounter("ipa_rmi_client_dial_retries_total",
		"RMI dial attempts beyond the first (WithRetry backoff redials).")
	faultErrors = obs.GetCounter("ipa_rmi_faults_injected_total",
		"Injected dispatch faults, by kind.", "kind", "error")
	faultDrops = obs.GetCounter("ipa_rmi_faults_injected_total",
		"Injected dispatch faults, by kind.", "kind", "drop")
	faultDelays = obs.GetCounter("ipa_rmi_faults_injected_total",
		"Injected dispatch faults, by kind.", "kind", "delay")
)

// clientCallHist caches the per-method client latency histogram by Call
// target, so the hot path pays one sync.Map load instead of a label
// signature build. Histograms are labeled by bare method name — bounded
// regardless of how many shard objects a server exports.
var clientCallHist sync.Map // objectDotMethod → *obs.Histogram

func callHist(target, method string) *obs.Histogram {
	if h, ok := clientCallHist.Load(target); ok {
		return h.(*obs.Histogram)
	}
	h := obs.GetHistogram("ipa_rmi_client_call_seconds",
		"RMI client call latency (seconds), by method.", nil, "method", method)
	clientCallHist.Store(target, h)
	return h
}

// serverCallHist builds the per-method server dispatch histogram at
// Register time, so dispatch pays zero registry lookups.
func serverCallHist(method string) *obs.Histogram {
	return obs.GetHistogram("ipa_rmi_server_call_seconds",
		"RMI server dispatch latency (seconds), by method.", nil, "method", method)
}

// traceOf lifts a trace context out of call arguments that carry one
// (the untraced zero context otherwise).
func traceOf(args any) obs.TraceContext {
	if c, ok := args.(obs.Carrier); ok {
		return c.TraceCtx()
	}
	return obs.TraceContext{}
}

// recoverTrace stores the envelope's hop-advanced context into decoded
// arguments that accept one; argp must be a pointer value.
func recoverTrace(argp any, tc obs.TraceContext) {
	if !tc.Valid() {
		return
	}
	if s, ok := argp.(obs.Setter); ok {
		s.SetTraceCtx(tc)
	}
}
