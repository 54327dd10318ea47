// Package core holds an exactly-80-byte Message and a Node at its
// 360-byte pin: both are satisfied and the analyzer must stay silent.
package core

type Message struct {
	Pad [10]uint64
}

type Node struct {
	state [45]uint64
}
