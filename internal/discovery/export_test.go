package discovery

// Tables reports the sizes of the delta-push ledger, the scan-cost timer
// table and the query dedup set, -1 for one that is not allocated (tests).
func (s *Service) Tables() (pushed, costTimers, seen int) {
	pushed, costTimers, seen = len(s.pushed), len(s.costTimers), len(s.seen)
	if s.pushed == nil {
		pushed = -1
	}
	if s.costTimers == nil {
		costTimers = -1
	}
	if s.seen == nil {
		seen = -1
	}
	return pushed, costTimers, seen
}
