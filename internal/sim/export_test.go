package sim

// QueueLens returns the heap length and the number of events parked
// in the wheel, for tests outside the package.
func (s *Scheduler) QueueLens() (heap, wheel int) { return len(s.heap), s.wcount }
