package lockspace

import "time"

// after is a deterministic file's business (no //ocmxvet:live pragma):
// the determinism analyzer judges its clock use, looptimer does not.
func after(d time.Duration) <-chan time.Time {
	return time.After(d)
}
