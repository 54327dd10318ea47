// Package core shrinks Message below the pin: the contract is exact —
// the cache-line-pair layout and the wire record that encodes every
// field break in either direction — so shrinking is a finding too, with no field named since
// none crossed the limit. Node's pin is an upper bound: a smaller Node
// is a cheaper instance and stays silent.
package core

type Message struct { // want "core.Message is 72 bytes, want exactly 80"
	Pad [9]uint64
}

type Node struct {
	state [40]uint64
}
