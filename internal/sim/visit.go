package sim

// Chain is a sequence of station visits a process makes in one blocking
// call (see Proc.Visits).
type Chain interface {
	// Next returns the station and service time of the next visit, or a
	// nil station when the chain is over. It is called where the process
	// would continue after the previous visit — on the process's stack or
	// on the kernel's — so it must not block.
	Next() (*Resource, float64)
}

// Seize, as a visit's service time, takes one server of the station and
// keeps it: the visit ends at the grant, having recorded the wait as
// Acquire does, and records no residence and no release. The holder
// returns the server with Release, from a later Next or from the process.
const Seize = -1.0

// Visits makes the station visits c supplies, in order, each exactly as
// Use would (queue FCFS for a server, hold it for the service time,
// release it) or, for a Seize, as Acquire would. The process does not run
// between visits: the kernel calls Next at the point where the process
// would have continued after the previous visit, and starts the next
// visit there. The process is resumed once, when Next returns a nil
// station, so a chain of k visits costs at most one coroutine resume
// where k Use calls cost up to k, with the same dispatch order, clock
// readings and station statistics. A queue wait is interruptible: on
// interrupt the visit is abandoned, no later one is started, and the
// error is returned, as Use returns it. A panic in Next is raised by
// Visits.
func (p *Proc) Visits(c Chain) error {
	r, d := c.Next()
	if r == nil {
		return nil
	}
	return p.visit(c, r, d)
}

// visit makes p's visit to r for service time d and then, with a chain,
// the chain's following visits: the one path of Use, Acquire and Visits.
func (p *Proc) visit(chain Chain, r *Resource, d float64) error {
	c := p.co
	c.chain = chain
	if c.begin(r, d) && c.advance() {
		return nil
	}
	if err := p.park(); err != nil {
		c.at = nil
		return err
	}
	if f := c.fault; f != nil {
		c.fault = nil
		panic(f)
	}
	return nil
}

// begin starts the coroutine's process on a visit to r for service time
// d, and reports whether the service (for a Seize, the wait) is already
// over.
func (c *coro) begin(r *Resource, d float64) bool {
	if c.seize = d == Seize; c.seize {
		d = 0
	} else if d < 0 {
		panic("sim: negative hold")
	}
	c.at, c.start = r, r.env.now
	return r.begin(c.p, d)
}

// advance ends the visit in progress (residence and release, unless a
// Seize) and begins the chain's next visits until one must wait, which it
// reports as false, or the chain is over.
func (c *coro) advance() bool {
	for {
		r := c.at
		c.at = nil
		if !c.seize {
			r.residence.Add(r.env.now - c.start)
			r.Release()
		}
		if c.chain == nil {
			return true
		}
		next, d := c.chain.Next()
		if next == nil {
			return true
		}
		if !c.begin(next, d) {
			return false
		}
	}
}

// visited runs when p's service hold is over — at the hold's expiry
// event, or in a serve event whose hold was empty or fused — at the point
// where p would continue. It finishes p's visits on the kernel's stack and
// resumes p once they are over.
func (e *Env) visited(p *Proc) {
	if p.co.advanceInKernel() {
		e.resume(p, nil)
	}
}

// advanceInKernel is advance on the kernel's stack. A panic in the chain's
// Next ends the chain: the process is resumed and re-raises it, so it is
// reported with the process's name like any panic of the process.
func (c *coro) advanceInKernel() (over bool) {
	defer func() {
		if r := recover(); r != nil {
			c.fault, over = r, true
		}
	}()
	return c.advance()
}
