// Package transport is outside the rule: a session arms one timer per
// peer, stops it on Close, and has no loop to own a heap.
package transport

//ocmxvet:live -- fixture: a live file of another package

import "time"

func arm(d time.Duration, fire func()) *time.Timer {
	return time.AfterFunc(d, fire)
}
