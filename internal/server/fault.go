package server

import "time"

// Fault is what happens to one search/top-k request: an added latency (a
// straggling shard), an error response, or a dropped connection. The delay,
// if any, is served first — a delayed request is what a hedging client
// races.
type Fault struct {
	Fail  bool
	Drop  bool
	Shed  bool
	Delay time.Duration
}

// FaultPlan is the serving-layer counterpart of the MapReduce runtime's
// deterministic fault injection: it maps the server-wide request sequence
// number (0-based, counting only search and top-k requests) to injected
// faults, so every failure a test provokes is reproducible. A nil plan
// injects nothing. Build the plan before the server starts; it is read
// concurrently while serving and must not be mutated afterwards.
type FaultPlan struct {
	entries map[int64]Fault
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{entries: make(map[int64]Fault)}
}

func (p *FaultPlan) upsert(req int64, fn func(*Fault)) *FaultPlan {
	f := p.entries[req]
	fn(&f)
	p.entries[req] = f
	return p
}

// FailRequest schedules request req to be answered with an error frame.
func (p *FaultPlan) FailRequest(req int64) *FaultPlan {
	return p.upsert(req, func(f *Fault) { f.Fail = true })
}

// DropRequest schedules the connection serving request req to be closed
// without a response — the failure mode that exercises client reconnects.
func (p *FaultPlan) DropRequest(req int64) *FaultPlan {
	return p.upsert(req, func(f *Fault) { f.Drop = true })
}

// ShedRequest schedules request req to be answered with a MsgShed frame as
// if its admission-wait budget had expired — the deterministic overload
// signal smoke tests assert on.
func (p *FaultPlan) ShedRequest(req int64) *FaultPlan {
	return p.upsert(req, func(f *Fault) { f.Shed = true })
}

// DelayRequest schedules request req to stall for d before being served —
// the straggler injection hedged requests exist to absorb.
func (p *FaultPlan) DelayRequest(req int64, d time.Duration) *FaultPlan {
	return p.upsert(req, func(f *Fault) { f.Delay = d })
}

// fault resolves the injected fault for one request; nil-receiver safe.
func (p *FaultPlan) fault(req int64) Fault {
	if p == nil {
		return Fault{}
	}
	return p.entries[req]
}
