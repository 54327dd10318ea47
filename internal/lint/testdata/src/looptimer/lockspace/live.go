// Package lockspace seeds looptimer violations in a live file: the
// per-event runtime timers the node loop must not arm, next to the one
// timer it may own and an annotated exception.
package lockspace

//ocmxvet:live -- fixture: the wall-clock half of the package

import "time"

type loop struct {
	timer *time.Timer
	wake  chan struct{}
}

func (l *loop) perEvent(d time.Duration) {
	time.AfterFunc(d, func() { l.wake <- struct{}{} }) // want "time.AfterFunc arms a runtime timer per event"
}

func (l *loop) wait(d time.Duration) {
	select {
	case <-l.wake:
	case <-time.After(d): // want "time.After arms a runtime timer per event"
	}
}

func (l *loop) own(d time.Duration) {
	l.timer = time.NewTimer(d) // the loop's one timer: legal
	l.timer.Reset(d)
}
