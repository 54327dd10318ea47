package lockspace

// pump is a deterministic file's business (no //ocmxvet:live pragma):
// heldblock judges the live half only. The caller holds ls.mu.
func pump(in chan int) int {
	return <-in
}

// Machine is the keyed node: the live node calls every method of it with
// ls.mu held, so heldblock judges them all, in this deterministic file
// too and whatever their doc comments say.
type Machine struct {
	wake chan struct{}
	due  []int
}

// Tick waits for its driver instead of being told the time.
func (m *Machine) Tick() {
	<-m.wake // want "channel receive in Tick, which runs with ls.mu held"
}

// Deadline only looks: legal.
func (m Machine) Deadline() int {
	for _, d := range m.due {
		return d
	}
	return 0
}
