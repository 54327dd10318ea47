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
	"strconv"
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
	dir := fs.String("dir", "", "state directory: stable.jsonl + boot.txt survive SIGKILL (required)")
	ttl := fs.Duration("ttl", 250*time.Millisecond, "lease TTL")
	keys := fs.Int("keys", 64, "key-space size")
	zipfS := fs.Float64("zipf", 1.1, "Zipf skew of key popularity")
	hold := fs.Duration("hold", 2*time.Millisecond, "critical-section dwell per grant")
	patience := fs.Duration("patience", 15*time.Second, "per-lock stuck threshold")
	seed := fs.Int64("seed", 1, "client pacing seed")
	delta := fs.Duration("delta", 50*time.Millisecond, "failure-detector message-delay bound")
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

	// Boot counter: a restart MUST come back with a strictly higher boot
	// or peers discard the new incarnation's frames as duplicates. The
	// counter is bumped before any traffic; a kill between bump and write
	// costs nothing (the next life bumps again).
	boot, rejoin, err := nextBoot(filepath.Join(*dir, "boot.txt"))
	if err != nil {
		return err
	}
	stable, err := lockspace.OpenFileStable(filepath.Join(*dir, "stable.jsonl"))
	if err != nil {
		return err
	}
	defer stable.Close()

	var reg *obs.Registry
	var fl *obs.Flight
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		fl = obs.NewFlight(obs.DefaultFlightDepth)
	}

	link, err := transport.NewSessTCP(ocube.Pos(*self), addrs)
	if err != nil {
		return err
	}
	node := core.Config{
		Self: ocube.Pos(*self), P: p, FT: true, EpochFence: true,
		Delta: *delta, CSEstimate: *delta,
		SuspicionSlack: 2 * *delta,
	}
	sess := transport.NewSession(ocube.Pos(*self), link, transport.SessionConfig{Boot: boot}.Fit(node))
	space, err := lockspace.New(lockspace.Config{
		Node:      node,
		Transport: sess,
		LeaseTTL:  *ttl,
		Rejoin:    rejoin,
		Stable:    stable,
		Metrics:   reg,
		Flight:    fl,
	})
	if err != nil {
		sess.Close()
		return err
	}
	defer func() { space.Close(); sess.Close() }()

	if reg != nil {
		// Per-peer session health, read from the live session at scrape
		// time (PeerStats returns zero values for quiet peers).
		selfLabel := strconv.Itoa(*self)
		reg.CounterFunc("ocmx_session_frames_total",
			"Reliable-session data frames sent for the first time.",
			func() float64 { return float64(sess.Stats().Frames) }, "node", selfLabel)
		reg.CounterFunc("ocmx_session_ack_frames_total",
			"Pure ack frames sent: acknowledgements that found no data frame to ride.",
			func() float64 { return float64(sess.Stats().AckFrames) }, "node", selfLabel)
		reg.CounterFunc("ocmx_session_receipts_total",
			"Token acknowledgments the session gave its own node in place of a token-ack envelope.",
			func() float64 { return float64(sess.Stats().Receipts) }, "node", selfLabel)
		for pos := range addrs {
			if pos == ocube.Pos(*self) {
				continue
			}
			pos := pos
			peerLabel := strconv.Itoa(int(pos))
			reg.CounterFunc("ocmx_session_retransmits_total",
				"Reliable-session data frames sent again after a timeout.",
				func() float64 { return float64(sess.PeerStats()[pos].Retransmits) },
				"node", selfLabel, "peer", peerLabel)
			reg.CounterFunc("ocmx_session_dup_drops_total",
				"Received session data frames discarded as duplicates.",
				func() float64 { return float64(sess.PeerStats()[pos].DupDrops) },
				"node", selfLabel, "peer", peerLabel)
		}
		srv, maddr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ocmxchaos: node %d serving /metrics and /debug/pprof/ on http://%s\n", *self, maddr)
	}

	zipf, err := workload.NewZipf(*keys, *zipfS)
	if err != nil {
		return err
	}
	emit(nodeEvent{Node: *self, Boot: boot, Event: "start"})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rng := rand.New(rand.NewSource(*seed ^ int64(*self)*2654435761))
	for ctx.Err() == nil {
		key := fmt.Sprintf("key-%03d", zipf.Sample(rng))
		lctx, cancel := context.WithTimeout(ctx, *patience)
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
		if *hold > 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(*hold))) + 1)
		}
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

// nextBoot bumps and persists the boot counter at path, returning the
// new boot and whether an earlier life existed (→ rejoin).
func nextBoot(path string) (uint64, bool, error) {
	prev := uint64(0)
	existed := false
	if b, err := os.ReadFile(path); err == nil {
		existed = true
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); perr == nil {
			prev = v
		}
	}
	boot := prev + 1
	if err := os.WriteFile(path, []byte(strconv.FormatUint(boot, 10)+"\n"), 0o644); err != nil {
		return 0, false, err
	}
	return boot, existed, nil
}
