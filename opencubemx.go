// Package opencubemx provides fault-tolerant distributed mutual exclusion
// on an open-cube logical tree, reproducing Hélary & Mostefaoui's
// algorithm (INRIA RR-2041, 1993 / ICDCS 1994).
//
// The package offers two entry points:
//
//   - Cluster: an in-process live cluster. Each node offers a Mutex, one
//     cluster-wide mutual exclusion token (see examples/quickstart and
//     examples/bankledger), and a Lockspace, a keyed lock service in which
//     every distinct key is its own independent open-cube mutex, lazily
//     instantiated and multiplexed over one runtime (Lock(ctx, key) /
//     Unlock(key, fence); see examples/lockspace).
//   - NewTCPNode: a single node communicating over TCP for multi-process
//     deployments. See examples/tcpcluster.
//
// Both are the same node: a keyed lockspace over a reliable session
// (sequence numbers, acks, retransmission) over an in-memory or TCP
// link. A Mutex is that node's lock on one fixed key.
//
// The algorithm guarantees mutual exclusion via a unique token routed on
// a logical tree that always remains an open-cube (a binomial tree), so a
// request costs at most log2(N)+2 messages and ~3/4·log2(N)+5/4 on
// average. With fault tolerance enabled, node fail-stops are detected by
// timeouts and repaired by a local search procedure costing O(log2 N)
// messages on average, including safe token regeneration.
package opencubemx

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/lockspace"
	"repro/internal/metrics"
	"repro/internal/ocube"
	"repro/internal/transport"
)

// Option customizes a cluster or a TCP node.
type Option func(*options)

type options struct {
	node  core.Config
	lease time.Duration
}

// config resolves opts into the lockspace configuration of node self of
// 2^p (everything but the transport).
func config(self, p int, opts []Option) lockspace.Config {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o.node.Self = ocube.Pos(self)
	o.node.P = p
	return lockspace.Config{Node: o.node, LeaseTTL: o.lease}
}

// WithFaultTolerance enables the failure-handling layer (Section 5 of the
// paper): delta is the assumed maximum message delay δ, csEstimate the
// expected critical-section duration e, and slack the extra margin added
// to every suspicion timeout (it should exceed the longest legitimate
// queueing wait). Tokens are epoch-fenced with it: a token from before a
// regeneration is refused wherever the regenerated one has been seen.
func WithFaultTolerance(delta, csEstimate, slack time.Duration) Option {
	return func(o *options) {
		o.node.FT = true
		o.node.EpochFence = true
		o.node.Delta = delta
		o.node.CSEstimate = csEstimate
		o.node.SuspicionSlack = slack
	}
}

// WithLeaseTTL bounds how long a hold stays valid without renewal. A
// holder that neither Unlocks nor Keepalives within ttl has its hold
// reclaimed and the lock re-granted to the next waiter; the expired
// holder's later Lockspace.Unlock/Keepalive reports ErrLeaseExpired, and
// its fence is stale at every FencedResource a newer holder has touched.
// A Mutex has no Keepalive, so under a lease its critical sections must
// be shorter than ttl. Combine with WithFaultTolerance so a crashed
// *node* (not just a silent client) also releases its locks.
func WithLeaseTTL(ttl time.Duration) Option {
	return func(o *options) { o.lease = ttl }
}

// Cluster is an in-process group of 2^p nodes, each over its own session
// on one in-memory frame mesh. Every node serves one keyed lock service:
// its Lockspace handle locks any key, and its Mutex handle the one
// cluster-wide mutex, which is the service's key "opencubemx.Mutex".
type Cluster struct {
	mesh  *transport.SessMesh
	nodes []*lockspace.Lockspace
}

// NewCluster starts an n-node cluster; n must be a power of two (the
// open-cube structure requires it — run a non-power-of-two membership by
// rounding up and leaving the spare positions unused with fault tolerance
// enabled). Position 0 holds every key's initial token.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("opencubemx: cluster size %d is not a power of two", n)
	}
	mesh, err := transport.NewSessMesh(n, 4096)
	if err != nil {
		return nil, err
	}
	c := &Cluster{mesh: mesh}
	for i := 0; i < n; i++ {
		cfg := config(i, bits.TrailingZeros(uint(n)), opts)
		node, err := lockspace.Start(mesh.Endpoint(cfg.Node.Self), transport.SessionConfig{}, cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

func (c *Cluster) node(i int) (*lockspace.Lockspace, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("opencubemx: node %d out of range [0,%d)", i, len(c.nodes))
	}
	return c.nodes[i], nil
}

// Kill simulates a fail-stop crash of node i: it stops at once, its
// holds, its waiters and what it had in flight die with it, and every
// message sent to it from now on is lost, exactly the failure model of
// the paper's Section 5. With fault tolerance enabled the surviving nodes
// detect the crash by timeout and repair the tree. Intended for failure
// drills and tests.
func (c *Cluster) Kill(i int) error {
	node, err := c.node(i)
	if err != nil {
		return err
	}
	return node.Close()
}

// Close stops every node and the transport fabric.
func (c *Cluster) Close() error {
	for i := range c.nodes {
		c.Kill(i)
	}
	return c.mesh.Close()
}

// Mutex returns node i's handle on the distributed mutex.
func (c *Cluster) Mutex(i int) (*Mutex, error) {
	node, err := c.node(i)
	if err != nil {
		return nil, err
	}
	return &Mutex{node}, nil
}

// Lockspace returns node i's handle on the keyed lock service.
func (c *Cluster) Lockspace(i int) (*Lockspace, error) {
	node, err := c.node(i)
	if err != nil {
		return nil, err
	}
	return &Lockspace{node}, nil
}

// mutexKey is the lockspace key the single mutex lives under; every
// member of a cluster must agree on it.
const mutexKey = "opencubemx.Mutex"

// Mutex is one node's handle on the cluster-wide mutual exclusion token.
// It intentionally mirrors sync.Mutex's shape, with context support:
// callers sharing one node's Mutex queue FIFO behind each other.
type Mutex struct {
	node *lockspace.Lockspace
}

// Lock blocks until this node holds the token (and thus the exclusive
// right to the critical section) or ctx is done.
func (m *Mutex) Lock(ctx context.Context) error {
	_, err := m.LockFenced(ctx)
	return err
}

// LockFenced is Lock returning the grant's fencing token: strictly
// increasing across the grants of one token lineage, with a regenerated
// token outranking any copy it replaces, so fence-comparing resources
// reject accesses from a holder whose grant is stale.
func (m *Mutex) LockFenced(ctx context.Context) (uint64, error) { return m.node.Lock(ctx, mutexKey) }

// Unlock releases the critical section, returning the token to its
// lender or keeping it if this node became the tree root.
func (m *Mutex) Unlock() error { return m.node.Unlock(mutexKey, 0) }

// Lockspace is one node's handle on the keyed lock service: a named
// mutex per key, each as strong as the single Mutex. Clients on the same
// node queue FIFO behind each other per key.
type Lockspace struct {
	node *lockspace.Lockspace
}

// Lock blocks until this node holds key's lock or ctx is done, and
// returns the hold's fencing token: strictly increasing per key across
// re-grants, so a resource that remembers the highest fence it has seen
// (see FencedResource) rejects writes from any holder whose lock has
// since expired or been re-granted. On cancellation the caller leaves
// the wait queue; a grant that raced the cancellation is released
// immediately.
func (l *Lockspace) Lock(ctx context.Context, key string) (uint64, error) {
	return l.node.Lock(ctx, key)
}

// Unlock releases the hold on key that fence names (the value Lock
// returned; 0 releases whatever hold is current). It reports
// ErrLeaseExpired when that hold already lapsed and was reclaimed.
func (l *Lockspace) Unlock(key string, fence uint64) error { return l.node.Unlock(key, fence) }

// Keepalive renews the lease on the hold that fence names, postponing
// its expiry by the cluster's WithLeaseTTL. Holders doing long critical
// sections heartbeat with it; a holder that stops heartbeating loses the
// key after one TTL, and its Keepalive then reports ErrLeaseExpired.
func (l *Lockspace) Keepalive(key string, fence uint64) error { return l.node.Keepalive(key, fence) }

// ErrLeaseExpired is returned by Lockspace.Unlock and Lockspace.Keepalive
// when the hold the fence names is gone: its lease (WithLeaseTTL) lapsed
// and the lock was reclaimed, possibly re-granted. The caller must treat
// its critical section as already invalid; a FencedResource has been
// rejecting its fence since the next grant touched it. Test for it with
// errors.Is.
var ErrLeaseExpired = lockspace.ErrLeaseExpired

// ErrStaleFence is returned by FencedResource.Access for a fence below
// the resource's high-water mark: the caller's lock expired or was
// re-granted after the access began, and a newer holder got here first.
var ErrStaleFence = errors.New("opencubemx: stale fence")

// FencedResource is a test helper modeling a storage system that honors
// fencing tokens: each access must present the fence of a current lock
// hold (Lock/LockFenced's return value), and any access under a fence
// below the highest one the resource has admitted for that key is
// rejected. It is how an application makes a lapsed lease or an
// out-of-model duplicate token harmless — the stale holder's writes
// bounce off the resource even though it still believes it holds the
// lock. Safe for concurrent use; the zero value is not ready, use
// NewFencedResource.
type FencedResource struct {
	gate *metrics.FenceGate
}

// NewFencedResource builds an empty fenced resource.
func NewFencedResource() *FencedResource {
	return &FencedResource{gate: &metrics.FenceGate{}}
}

// Access admits one access to key under fence, raising the key's
// high-water mark; it returns ErrStaleFence for a fence below the mark
// (or a zero fence — unfenced access is never admitted).
func (r *FencedResource) Access(key string, fence uint64) error {
	if !r.gate.Admit(key, fence) {
		return fmt.Errorf("%w: key %q fence %d", ErrStaleFence, key, fence)
	}
	return nil
}

// Rejected returns how many accesses were refused as stale.
func (r *FencedResource) Rejected() int64 { return r.gate.Rejected() }

// ErrBadMembership reports an invalid TCP membership table.
var ErrBadMembership = errors.New("opencubemx: membership size is not a power of two")

// TCPNode is one cluster member communicating over TCP.
type TCPNode struct {
	node *lockspace.Lockspace
	link *transport.SessTCP
}

// NewTCPNode starts node self of a cluster whose members listen at the
// given addresses (index = node position; the length must be a power of
// two). Position 0 holds the initial token.
//
// A TCPNode keeps no stable storage, so a member closed and started again
// comes back with cluster-birth state: its peers take its frames for a new
// incarnation's (the boot is the start time), but it rejoins nothing. That
// is safe only for a member that never took part — held, lent or asked for
// no token — which is what TestTCPNodeRestart restarts. A member that must
// survive a restart mid-protocol needs a life record: lockspace.Start with
// a FileStable, as `ocmxchaos node` runs.
func NewTCPNode(self int, addrs []string, opts ...Option) (*TCPNode, error) {
	n := len(addrs)
	if n <= 0 || n&(n-1) != 0 {
		return nil, ErrBadMembership
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("opencubemx: self %d out of range", self)
	}
	table := make(map[ocube.Pos]string, n)
	for i, a := range addrs {
		table[ocube.Pos(i)] = a
	}
	cfg := config(self, bits.TrailingZeros(uint(n)), opts)
	link, err := transport.NewSessTCP(cfg.Node.Self, table)
	if err != nil {
		return nil, err
	}
	node, err := lockspace.Start(link, transport.SessionConfig{}, cfg)
	if err != nil {
		return nil, err
	}
	return &TCPNode{node: node, link: link}, nil
}

// Mutex returns the node's mutex handle.
func (t *TCPNode) Mutex() *Mutex { return &Mutex{t.node} }

// Addr returns the node's bound listen address.
func (t *TCPNode) Addr() string { return t.link.Addr() }

// Close stops the node and its transport.
func (t *TCPNode) Close() error { return t.node.Close() }
