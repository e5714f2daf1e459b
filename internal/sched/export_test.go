package sched

// Workers returns the effective worker count.
func (s *Scheduler) Workers() int { return s.opts.Workers }
