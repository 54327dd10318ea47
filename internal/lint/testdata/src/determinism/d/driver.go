package d

import "time"

// drive is the wall-clock half of the package: no pragma, no finding.
func drive(m *machine, start time.Time) time.Duration {
	m.deadline = time.Since(start)
	return m.deadline
}
