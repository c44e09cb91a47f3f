package dist

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultAction is what an injected fault does to the matched RPC.
type FaultAction int

const (
	// FaultDelay stalls the worker's request loop for Rule.Delay
	// before serving the matched call — a deterministic straggler.
	FaultDelay FaultAction = iota
	// FaultDrop serves the matched call but swallows its response: the
	// client never hears back and only a per-call deadline rescues it.
	FaultDrop
	// FaultSever closes the serving connection before the matched call
	// runs: every in-flight call on that connection dies with a
	// transport error, exactly like a worker crash.
	FaultSever
)

// String names the action for plan listings and errors.
func (a FaultAction) String() string {
	switch a {
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultSever:
		return "sever"
	}
	return fmt.Sprintf("FaultAction(%d)", int(a))
}

// FaultRule injects one fault into the Nth (1-based) call of Method
// served by the worker, counting across all connections so the
// schedule is deterministic even as coordinators reconnect. Count > 1
// extends the fault to that many consecutive calls of the method.
type FaultRule struct {
	Method string // full RPC name, e.g. "Worker.ReduceGroup"
	Nth    int    // 1-based per-method call ordinal the fault fires on
	Count  int    // consecutive matching calls affected (0 or 1 = one)
	Action FaultAction
	Delay  time.Duration // FaultDelay only
}

func (r FaultRule) span() (lo, hi int) {
	n := r.Count
	if n < 1 {
		n = 1
	}
	return r.Nth, r.Nth + n - 1
}

// FaultPlan is a deterministic fault schedule a worker consults on
// every incoming RPC. It is safe for concurrent use; a nil plan
// injects nothing. Plans exist for tests and operator chaos drills
// (skyworker -fault) — production workers run without one.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	seen  map[string]int
	hits  int
}

// NewFaultPlan builds a plan from rules.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules, seen: make(map[string]int)}
}

// ParseFaultPlan parses a comma-separated fault spec, one rule per
// entry, each "method:nth[xCount]:action[:delay]":
//
//	Worker.ReduceGroup:1:delay:2s    delay the first reduce by 2s
//	Worker.ReduceGroup:2x3:sever     kill the conn on reduce calls 2-4
//	Worker.ReduceGroup:5:drop        swallow the fifth reduce reply
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	var rules []FaultRule
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("dist: fault %q: want method:nth:action[:delay]", ent)
		}
		var r FaultRule
		r.Method = parts[0]
		nth := parts[1]
		if x := strings.SplitN(nth, "x", 2); len(x) == 2 {
			nth = x[0]
			n, err := strconv.Atoi(x[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("dist: fault %q: bad count %q", ent, x[1])
			}
			r.Count = n
		}
		n, err := strconv.Atoi(nth)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("dist: fault %q: bad ordinal %q", ent, nth)
		}
		r.Nth = n
		switch parts[2] {
		case "delay":
			if len(parts) != 4 {
				return nil, fmt.Errorf("dist: fault %q: delay needs a duration", ent)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("dist: fault %q: %v", ent, err)
			}
			r.Action, r.Delay = FaultDelay, d
		case "drop":
			r.Action = FaultDrop
		case "sever":
			r.Action = FaultSever
		default:
			return nil, fmt.Errorf("dist: fault %q: unknown action %q", ent, parts[2])
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("dist: empty fault spec %q", spec)
	}
	return NewFaultPlan(rules...), nil
}

// match advances the per-method call counter and returns the rule the
// call trips, if any. Nil-safe.
func (p *FaultPlan) match(method string) *FaultRule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen[method]++
	n := p.seen[method]
	for i := range p.rules {
		r := &p.rules[i]
		if r.Method != method {
			continue
		}
		if lo, hi := r.span(); n >= lo && n <= hi {
			p.hits++
			rc := *r
			return &rc
		}
	}
	return nil
}
