package workload

// Splittable seeded streams for E13's key slices (internal/harness):
// every shard of one logical run draws its workload
// from its own RNG, derived from the run's root seed by SplitMix64
// folding. Deriving — rather than sharing or offsetting — matters on
// both axes the sharded experiments measure:
//
//   - Independence. shard i's stream must be uncorrelated with shard
//     j's, or every shard draws the same "random" hot keys and the
//     aggregate Zipf skew is an artifact of stream reuse. Naive folds
//     like seed+shard feed math/rand sources that are famously
//     correlated across adjacent seeds; SplitMix64's finalizer (the
//     avalanching xor-shift-multiply chain) decorrelates them.
//   - Identity discipline. A shard's stream is a pure function of
//     (root seed, shard id) and of nothing else — not the shard count,
//     not the worker count, not scheduling. That is what makes the
//     sharded tables byte-identical however the shards are executed.
//     In particular shard 0 does NOT inherit the root stream: an
//     unsharded consumer of the root seed and shard 0 of a sharded run
//     draw different values (TestShardSeedNotRootStream pins this), so
//     growing a single-stream experiment into a sharded one never
//     silently replays the old stream in its first shard.

// splitMix64 is the SplitMix64 finalizer: one golden-ratio increment
// followed by the avalanche mix. It is the standard seed-expansion
// primitive (java.util.SplittableRandom, xoshiro seeding).
func splitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ShardSeed derives the seed of shard id's private stream from a root
// seed. Distinct ids give decorrelated streams; the same (root, id)
// pair always gives the same stream; no id reproduces the root seed's
// own stream (the +1 below keeps id 0 from collapsing to a plain
// finalize of the root, which callers may already use elsewhere).
func ShardSeed(root int64, id int) int64 {
	return int64(splitMix64(splitMix64(uint64(root)) + uint64(id) + 1))
}
