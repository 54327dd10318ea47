// Package a seeds order-sensitive map iterations — collection without a
// sort, direct output, channel sends, stream writes and effect
// emission — next to the order-insensitive shapes that must stay legal.
package a

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

func unsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "collects into keys in randomized map order"
	}
	return keys
}

func sorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedFunc(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func printer(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside iteration over map m emits in randomized map order"
	}
}

func send(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "channel send inside iteration over map m"
	}
}

func build(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "b.WriteString inside iteration over map m writes in randomized map order"
	}
	return b.String()
}

type emitter struct{}

func (emitter) SendFrame(string) {}

func emits(m map[string]int, e emitter) {
	for k := range m {
		e.SendFrame(k) // want "e.SendFrame inside iteration over map m emits effects in randomized map order"
	}
}

func commute(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // commutative accumulation: legal
	}
	return total
}

func reindex(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k // keyed write into another map: legal
	}
	return out
}

func drain(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

func loopLocal(m map[string]int) {
	for k := range m {
		var parts []string
		parts = append(parts, k) // loop-local slice: nothing survives
		_ = parts
	}
}
