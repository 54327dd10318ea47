package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricSpec names one metric of the benchmark: the same table prints
// -list, renders BENCHMARK.json and labels every value a run reports.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd are the gated metrics: the two that repeat on a shared host.
// Every workload reports both from its untraced run. The wall-clock
// readings a caller also sees (throughput, latency, CPU, memory) move with
// the host by more than any bound worth gating (bench/NOISE.md) and are the
// lock.* per-layer metrics.
var endToEnd = []metricSpec{
	{"msgs_per_grant", "count", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, named after the repo's
// packages. Every workload reports every one of them from its traced
// run; a layer a workload bypasses, or one with no exported seam on that
// workload, reads 0.
var perLayer = []metricSpec{
	{"lock.grants_per_s", "1/s", "higher", 0},
	{"lock.acquire_p50_us", "us", "lower", 0},
	{"lock.acquire_p99_us", "us", "lower", 0},
	{"lock.cpu_us_per_grant", "us", "lower", 0},
	{"lock.peak_rss_mb", "MB", "lower", 0},
	{"lockspace.local_us", "us", "lower", 0},
	{"lockspace.hop_service_us", "us", "lower", 0},
	{"lockspace.grant_wakeup_us", "us", "lower", 0},
	{"lockspace.hops_per_acquire", "count", "lower", 0},
	{"lockspace.local_grant_share", "ratio", "higher", 0},
	{"lockspace.envelopes_per_batch", "count", "higher", 0},
	{"transport.session.transit_p50_us", "us", "lower", 0},
	{"transport.session.transit_p99_us", "us", "lower", 0},
	{"transport.session.send_us", "us", "lower", 0},
	{"transport.session.frames_per_grant", "count", "lower", 0},
	{"transport.session.ack_frames_per_grant", "count", "lower", 0},
	{"transport.session.retransmits", "count", "lower", 0},
	{"transport.session.dup_drops", "count", "lower", 0},
	{"transport.link.send_us", "us", "lower", 0},
	{"transport.link.transit_us", "us", "lower", 0},
	{"transport.link.frame_bytes_est", "B", "lower", 0},
	{"core.handle_ns", "ns", "lower", 0},
	{"core.calls_per_grant", "count", "lower", 0},
	{"core.timers_per_grant", "count", "lower", 0},
	{"core.lavault_ratio", "ratio", "lower", 0},
	{"core.repair_msgs_per_failure", "count", "lower", 0},
	{"core.regenerations", "count", "lower", 0},
	{"core.stale_tokens", "count", "lower", 0},
	{"core.outage_p50_ms", "ms", "lower", 0},
	{"core.outage_max_ms", "ms", "lower", 0},
	{"sim.events_per_grant", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.session.frames_per_grant", "count", "lower", 0},
	{"sim.session.retransmits_per_grant", "count", "lower", 0},
	{"sim.new_s", "s", "lower", 0},
	{"lockspace.space.ns_per_event", "ns", "lower", 0},
	{"lockspace.space.states_per_key", "count", "lower", 0},
	{"lockspace.space.new_s", "s", "lower", 0},
	{"workload.gen_s", "s", "lower", 0},
	{"workload.skipped_share", "ratio", "lower", 0},
	{"runtime.allocs_per_grant", "count", "lower", 0},
	{"runtime.bytes_per_grant", "B", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"bench.failed_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
	{"host.other_cpu_share", "ratio", "lower", 0},
}

// workloadSpec is one workload: its name, the one-line reason it exists
// (BENCHMARK.json's "why") and the function that runs it.
type workloadSpec struct {
	Name string
	Why  string
	run  func(opt runOptions) (*result, error)
}

// runSeconds is BENCHMARK.json's run_seconds: the measured window of the
// untraced run. It is a constant of the benchmark, the same on every
// commit; -seconds exists because the driver passes it.
const runSeconds = 25

var workloads = []workloadSpec{
	{"live-tcp-roam",
		"8 nodes on loopback SessTCP, 2 clients roaming over nodes and 256 keys: the token always travels, so gob, sockets and per-frame acks do the work",
		func(o runOptions) (*result, error) { return runLive(liveTCPRoam, o) }},
	{"live-mesh-hot",
		"same lockspace+session code on the in-memory SessMesh, 8 pinned clients on 4 Zipf keys: latency is queueing for the token, no bytes are encoded",
		func(o runOptions) (*result, error) { return runLive(liveMeshHot, o) }},
	{"sim-keyed",
		"lockspace.Space, N=256, 16384 Zipf keys, failure-free, virtual time: the mux, timer wheel and sparse slots do the work; transport is bypassed",
		runSimKeyed},
	{"sim-faulty",
		"sim.Network, N=64 single mutex, sim sessions over 1% loss, holder crashed every 2000th grant: retransmits and section-5 recovery do the work; the mux is bypassed",
		runSimFaulty},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// benchmarkJSON renders the root BENCHMARK.json from the tables above, so
// the file and the program cannot name different things.
func benchmarkJSON(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloads {
		doc.Workloads = append(doc.Workloads, wl{s.Name, s.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// list prints names, units, bounds and why each workload exists.
func list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, s := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", s.Name, s.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-40s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}
