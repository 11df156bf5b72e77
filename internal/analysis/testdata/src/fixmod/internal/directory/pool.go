package directory

// This file is the lifecycle-rule fixture for pooled records that carry a
// prebound closure recycling the record when the work it represents
// completes, the shape of the AMU's finePut records: handing out r.run
// transfers ownership. The production directory's own record pool holds
// only perturber-delayed requests, recycled by a controller-level
// prebound call.

// Controller mirrors the production record pool.
type Controller struct {
	reqFree []*dirReq
}

// dirReq is one pooled request record with its prebound completion.
type dirReq struct {
	c     *Controller
	block uint64
	run   func()
}

// acquireReq pops a pooled record or builds a fresh one whose run closure
// recycles it.
func (c *Controller) acquireReq() *dirReq {
	if k := len(c.reqFree) - 1; k >= 0 {
		r := c.reqFree[k]
		c.reqFree = c.reqFree[:k]
		return r
	}
	r := &dirReq{c: c}
	r.run = func() { r.c.reqFree = append(r.c.reqFree, r) }
	return r
}

// releaseReq recycles a record directly.
func (c *Controller) releaseReq(r *dirReq) {
	c.reqFree = append(c.reqFree, r)
}

// submit queues the record's completion; running it recycles the record.
func (c *Controller) submit(run func()) {}

// HandleRetry is historical shape 1 in record form: the busy path returns
// without recycling the request record it acquired.
func (c *Controller) HandleRetry(block uint64, busy bool) {
	r := c.acquireReq()
	r.block = block
	if busy {
		return // want `pooled value "r" \(acquireReq, line \d+\) may leak`
	}
	c.submit(r.run)
}

// RecycleTwice recycles the same record twice.
func (c *Controller) RecycleTwice() {
	r := c.acquireReq()
	c.releaseReq(r)
	c.releaseReq(r) // want `double release of pooled value "r"`
}

// TouchAfterRecycle mutates a record after it returned to the pool.
func (c *Controller) TouchAfterRecycle() {
	r := c.acquireReq()
	c.releaseReq(r)
	r.block = 1 // want `use of released pooled value "r"`
}

// HandleClean recycles or transfers on every path: no findings.
func (c *Controller) HandleClean(busy bool) {
	r := c.acquireReq()
	if busy {
		c.releaseReq(r)
		return
	}
	c.submit(r.run)
}
