package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/obs"
	"repro/internal/ocube"
	"repro/internal/transport"
	"repro/internal/workload"
)

func newFlagSet(mode string) *flag.FlagSet {
	fs := flag.NewFlagSet("ocmxchaos "+mode, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// nodeEvent is one JSONL line on a node process's stdout: the externally
// observable lock history a compose-level checker (or a human with jq)
// can replay against the property suite.
type nodeEvent struct {
	T     string `json:"t"` // RFC3339Nano
	Node  int    `json:"node"`
	Boot  uint64 `json:"boot"`
	Event string `json:"ev"` // start, grant, release, expired, lost, stuck, stop
	Key   string `json:"key,omitempty"`
	Fence uint64 `json:"fence,omitempty"`
	Err   string `json:"err,omitempty"`
}

// The node's settings: its lease, its failure detector's message-delay
// bound, and its client loop's keys, skew, dwell, stuck threshold and
// pacing seed.
const (
	nodeTTL      = 250 * time.Millisecond
	nodeDelta    = 50 * time.Millisecond
	nodeKeys     = 64
	nodeZipfS    = 1.1
	nodeHold     = 2 * time.Millisecond
	nodePatience = 15 * time.Second
	nodeSeed     = 1
)

func emit(ev nodeEvent) {
	ev.T = time.Now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Println(string(b))
}

func runNode(args []string) error {
	fs := newFlagSet("node")
	self := fs.Int("self", 0, "this node's cube position")
	addrsFlag := fs.String("addrs", "", "comma-separated host:port for every node, position order (required, length 1<<p)")
	dir := fs.String("dir", "", "state directory: stable.jsonl, the node's boot and stable storage, survives SIGKILL (required)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrsFlag == "" || *dir == "" {
		return errors.New("node: -addrs and -dir are required")
	}
	parts := strings.Split(*addrsFlag, ",")
	n := len(parts)
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("node: %d addresses, want a power of two", n)
	}
	p := bits.TrailingZeros(uint(n))
	if *self < 0 || *self >= n {
		return fmt.Errorf("node: -self %d out of range [0,%d)", *self, n)
	}
	addrs := make(map[ocube.Pos]string, n)
	for i, a := range parts {
		addrs[ocube.Pos(i)] = strings.TrimSpace(a)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	stable, err := lockspace.OpenFileStable(filepath.Join(*dir, "stable.jsonl"))
	if err != nil {
		return err
	}
	defer stable.Close()

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	link, err := transport.NewSessTCP(ocube.Pos(*self), addrs)
	if err != nil {
		return err
	}
	// The boot lives in stable.jsonl: Start bumps it before any traffic, so
	// a restart comes back with a strictly higher one — or peers would
	// discard the new incarnation's frames as duplicates — and rejoins.
	space, err := lockspace.Start(link, transport.SessionConfig{}, lockspace.Config{
		Node: core.Config{
			Self: ocube.Pos(*self), P: p, FT: true, EpochFence: true,
			Delta: nodeDelta, CSEstimate: nodeDelta,
			SuspicionSlack: 2 * nodeDelta,
		},
		LeaseTTL: nodeTTL,
		Stable:   stable,
		Metrics:  reg,
	})
	if err != nil {
		return err
	}
	defer space.Close()
	boot := space.Boot()

	if reg != nil {
		srv, maddr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ocmxchaos: node %d serving /metrics and /debug/pprof/ on http://%s\n", *self, maddr)
	}

	zipf, err := workload.NewZipf(nodeKeys, nodeZipfS)
	if err != nil {
		return err
	}
	emit(nodeEvent{Node: *self, Boot: boot, Event: "start"})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rng := rand.New(rand.NewSource(nodeSeed ^ int64(*self)*2654435761))
	for ctx.Err() == nil {
		key := fmt.Sprintf("key-%03d", zipf.Sample(rng))
		lctx, cancel := context.WithTimeout(ctx, nodePatience)
		fence, err := space.Lock(lctx, key)
		timedOut := lctx.Err() == context.DeadlineExceeded
		cancel()
		switch {
		case err == nil:
		case timedOut && errors.Is(err, context.DeadlineExceeded):
			emit(nodeEvent{Node: *self, Boot: boot, Event: "stuck", Key: key, Err: err.Error()})
			continue
		default:
			// Shutdown or a transient refusal; loop re-checks ctx.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		emit(nodeEvent{Node: *self, Boot: boot, Event: "grant", Key: key, Fence: fence})
		time.Sleep(time.Duration(rng.Int63n(int64(nodeHold))) + 1)
		switch uerr := space.Unlock(key, fence); {
		case uerr == nil:
			emit(nodeEvent{Node: *self, Boot: boot, Event: "release", Key: key, Fence: fence})
		case errors.Is(uerr, lockspace.ErrLeaseExpired):
			emit(nodeEvent{Node: *self, Boot: boot, Event: "expired", Key: key, Fence: fence, Err: uerr.Error()})
		default:
			emit(nodeEvent{Node: *self, Boot: boot, Event: "lost", Key: key, Fence: fence, Err: uerr.Error()})
		}
	}
	emit(nodeEvent{Node: *self, Boot: boot, Event: "stop"})
	return nil
}
