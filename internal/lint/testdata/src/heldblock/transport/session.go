// Package transport is outside the rule: a session has a mutex of its
// own, with an invariant of its own.
package transport

//ocmxvet:live -- fixture: a live file of another package

// deliver hands a batch on. The caller holds ls.mu.
func deliver(out chan int, v int) {
	out <- v
}
