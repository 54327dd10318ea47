package trace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ocube"
)

func TestRecorderTallies(t *testing.T) {
	var r Recorder
	if r.Total() != 0 || r.Overhead() != 0 || r.String() != "total=0" {
		t.Errorf("zero recorder: total=%d overhead=%d %q", r.Total(), r.Overhead(), r.String())
	}
	for _, m := range []core.Message{
		{Kind: core.KindRequest, From: 0, To: 1, Source: 2},
		{Kind: core.KindToken, From: 1, To: 2, Source: 2},
		{Kind: core.KindTest, From: 3, To: 4, Source: 7}, // control traffic serves no requester
		{Kind: core.KindRequest, From: 3, To: 4, Source: 5, Regen: true},
		{Kind: core.KindTestReply, From: 4, To: 3},
		{Kind: core.KindTokenAck, From: 2, To: 1},
		{Kind: core.KindRequest, From: 1, To: 0, Source: ocube.None},
	} {
		r.Count(m)
	}
	if r.Total() != 7 {
		t.Errorf("total = %d", r.Total())
	}
	if r.Kind("request") != 3 || r.Kind("token") != 1 || r.Kind("test-reply") != 1 || r.Kind("obsolete") != 0 {
		t.Error("kind counts wrong")
	}
	// test, test-reply, token-ack and the re-issued request.
	if r.Overhead() != 4 {
		t.Errorf("overhead = %d, want 4", r.Overhead())
	}
	if r.Source(2) != 2 || r.Source(5) != 1 || r.Source(7) != 0 || r.Source(-1) != 0 || r.Source(99) != 0 {
		t.Error("source attribution wrong")
	}
	// Kinds sort by name: a name before its hyphenated extensions.
	if got, want := r.String(), "total=7 request=3 test=1 test-reply=1 token=1 token-ack=1"; got != want {
		t.Errorf("string = %q, want %q", got, want)
	}
}

// TestRecorderCountsBaselineKinds checks that a kind outside the open-cube
// protocol's vocabulary is tallied and named like any other.
func TestRecorderCountsBaselineKinds(t *testing.T) {
	var r Recorder
	r.Count(core.Message{Kind: core.Kind(200)})
	r.Count(core.Message{Kind: core.Kind(200)})
	if r.Kind("kind(200)") != 2 || r.Overhead() != 2 || r.String() != "total=2 kind(200)=2" {
		t.Errorf("kind(200) = %d overhead = %d %q", r.Kind("kind(200)"), r.Overhead(), r.String())
	}
}
