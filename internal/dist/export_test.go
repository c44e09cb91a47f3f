package dist

// Injected reports how many calls have tripped a rule so far.
func (p *FaultPlan) Injected() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}
