package core

// Host is what the nodes of one position share when a driver runs many
// protocol instances there (internal/lockspace, live and simulated): the
// validated Config — held once instead of copied into every Node, its
// Policy resolved — ONE Emitter, and the counts of what its nodes
// reported. It is built once from a template and mints nodes that cannot
// fail, carved from chunked slabs so an instance costs a slab slot rather
// than an allocation of its own.
//
// Sharing the emitter widens the effect-lifetime rule from the node to
// the host: the slice a node returns, and the arena values it points
// into, are valid until the next call into ANY node of the same host,
// whose every public entry point begins by recycling it. Drivers already
// execute or translate a call's effects before they deliver the next
// input, which is all the rule asks. Like a Node, a Host belongs to one
// goroutine.
type Host struct {
	cfg Config // Policy is never nil: init resolves the default
	em  Emitter

	// regens and stale count the token regenerations and stale-token
	// sightings of every node the host minted, where they are reported.
	regens, stale int64

	// slab is the unminted remainder of the current chunk; nodes keeps
	// count so chunks grow with the population.
	slab  []Node
	nodes int
}

// maxSlabChunk caps the slab's doubling, bounding the slots a host can
// leave unminted.
const maxSlabChunk = 64

// NewHost validates the template (Self and P included) and returns the
// host minting its nodes.
func NewHost(cfg Config) (*Host, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := new(Host)
	h.init(cfg)
	return h, nil
}

// init installs a validated template.
func (h *Host) init(cfg Config) {
	h.cfg = cfg
	if h.cfg.Policy == nil {
		h.cfg.Policy = OpenCubePolicy{}
	}
}

// NewNode mints the state machine of one instance at the host's position,
// in the pristine open-cube configuration (see NewNode). Every TokenEvent
// it reports carries inst.
func (h *Host) NewNode(inst uint64) *Node {
	if len(h.slab) == 0 {
		// Chunks double with the population, from one node up to the cap:
		// a host of a few instances stays small, a host of thousands pays
		// one allocation per maxSlabChunk of them.
		h.slab = make([]Node, min(max(h.nodes, 1), maxSlabChunk))
	}
	n := &h.slab[0]
	h.slab = h.slab[1:]
	h.nodes++
	n.init(h, inst)
	return n
}

// Regenerations returns how many times the host's nodes regenerated a
// presumed-lost token (TokenEvRegenerated).
func (h *Host) Regenerations() int64 { return h.regens }

// StaleTokens returns how many stale-epoch tokens the host's nodes
// sighted (TokenEvStale): tokens proving that a regeneration raced a live
// token rather than replacing a lost one. It is a lower bound, since only
// a node that already learned the newer epoch can recognize a survivor.
func (h *Host) StaleTokens() int64 { return h.stale }
