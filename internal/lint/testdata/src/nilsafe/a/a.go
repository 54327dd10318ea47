// Package a exercises the hook-guard half of nilsafe against the real
// core.Config.Observe and chaos.Config.Autopsy fields: unguarded uses
// are findings; the guarded shapes the real tree uses — enclosing
// `!= nil` blocks, && conjuncts, `== nil` early returns, else arms —
// stay legal, as do writes, nil tests and taking the func value.
package a

import (
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
)

func bad(cfg core.Config, ev core.TokenEvent) {
	cfg.Observe(ev) // want "cfg.Observe used without a dominating"
}

func guarded(cfg core.Config, ev core.TokenEvent) {
	if cfg.Observe != nil {
		cfg.Observe(ev)
	}
}

func early(cfg core.Config, ev core.TokenEvent) {
	if cfg.Observe == nil {
		return
	}
	cfg.Observe(ev)
}

func conjunct(cfg core.Config, on bool, ev core.TokenEvent) {
	if on && cfg.Observe != nil {
		cfg.Observe(ev)
	}
}

func elseArm(cfg core.Config, ev core.TokenEvent) int {
	skipped := 0
	if cfg.Observe == nil {
		skipped++ // the if body does not terminate: only the else arm is guarded
	} else {
		cfg.Observe(ev)
	}
	return skipped
}

func value(cfg core.Config) func(core.TokenEvent) {
	return cfg.Observe // taking the func value is legal; only calling nil panics
}

func assign(cfg *core.Config, fn func(core.TokenEvent)) {
	cfg.Observe = fn // writes need no guard
}

func autopsyBad(cfg chaos.Config) io.Writer {
	return cfg.Autopsy // want "cfg.Autopsy used without a dominating"
}

func autopsyGuarded(cfg chaos.Config) {
	if cfg.Autopsy != nil {
		cfg.Autopsy.Write([]byte("autopsy"))
	}
}
