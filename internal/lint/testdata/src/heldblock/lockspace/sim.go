package lockspace

// pump is a deterministic file's business (no //ocmxvet:live pragma):
// heldblock judges the live half only. The caller holds ls.mu.
func pump(in chan int) int {
	return <-in
}
