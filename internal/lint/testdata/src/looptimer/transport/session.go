// Package transport is another package with a live loop: its session
// goroutine owns one timer too, so the rule holds in its live files.
package transport

//ocmxvet:live -- fixture: a live file of another package

import "time"

func arm(d time.Duration, fire func()) *time.Timer {
	return time.AfterFunc(d, fire) // want "time.AfterFunc arms a runtime timer per event"
}
