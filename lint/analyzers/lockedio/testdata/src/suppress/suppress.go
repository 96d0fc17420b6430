// Package suppress pins where //lint:ignore takes effect for an
// interprocedural diagnostic: at the call site that is reported — not
// at the callee whose summary merely carries the I/O fact.
package suppress

import (
	"net"
	"sync"
)

type Pool struct {
	mu   sync.Mutex
	conn net.Conn
}

// ping is the I/O-reaching callee. The directive inside it is useless:
// the diagnostic is anchored at the call site, so a callee-side ignore
// suppresses nothing.
func (p *Pool) ping() error {
	//lint:ignore lockedio misplaced: this is the callee, not the reported call site
	_, err := p.conn.Write(nil)
	return err
}

// CalleeAnnotated shows the callee-side directive failing to suppress:
// the call-site diagnostic still fires.
func (p *Pool) CalleeAnnotated() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ping() // want `held across call to p\.ping`
}

// SiteAnnotated carries the directive on the reported line, which is
// where suppression belongs — no diagnostic.
func (p *Pool) SiteAnnotated() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	//lint:ignore lockedio protocol requires the ping inside the critical section
	return p.ping()
}
