// Package lockspace seeds heldblock violations in a live file: functions
// that say the caller holds ls.mu and then wait — next to the polling
// select a step may make, a function that makes no such claim, and an
// annotated exception.
package lockspace

//ocmxvet:live -- fixture: the wall-clock half of the package

import (
	"sync"
	"time"
)

type node struct {
	mu      sync.Mutex
	in      chan int
	granted chan struct{}
}

// receive takes one input. The caller holds ls.mu.
func (ls *node) receive() int {
	return <-ls.in // want "channel receive in receive, which runs with ls.mu held"
}

// wake tells the waiter. The caller
// holds ls.mu.
func (ls *node) wake() {
	ls.granted <- struct{}{} // want "channel send in wake"
}

// wait parks until the grant or the input. The caller holds ls.mu.
func (ls *node) wait() {
	select { // want "select without default in wait"
	case <-ls.granted:
	case v := <-ls.in:
		_ = v
	}
}

// drain takes what is already waiting, without blocking: legal. The
// caller holds ls.mu.
func (ls *node) drain() (n int) {
	for {
		select {
		case v := <-ls.in:
			n += v
		default:
			close(ls.granted) // closing wakes the waiter and never waits
			return n
		}
	}
}

// drainThenWait polls, then blocks inside the clause it took. The caller
// holds ls.mu.
func (ls *node) drainThenWait() {
	select {
	case <-ls.in:
		<-ls.granted // want "channel receive in drainThenWait"
	default:
	}
}

// all ranges over its input. The caller holds ls.mu.
func (ls *node) all() (n int) {
	for v := range ls.in { // want "range over a channel in all"
		n += v
	}
	for _, v := range []int{1, 2} { // a slice: legal
		n += v
	}
	return n
}

// settle naps and then takes the mutex it already has. The caller holds ls.mu.
func (ls *node) settle() {
	time.Sleep(time.Millisecond) // want "time.Sleep in settle"
	ls.mu.Lock()                 // want "ls.mu.Lock\\(\\) in settle"
	ls.mu.Unlock()
}

// later hands the wait to a goroutine of its own, which does not run
// inside the step. The caller holds ls.mu.
func (ls *node) later() {
	go func() { <-ls.in }()
}

// begin takes the mutex for a step: it makes no claim about its caller,
// so it may.
func (ls *node) begin() {
	ls.mu.Lock()
	<-ls.in
}
