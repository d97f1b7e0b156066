// Fixture: a coordinator journaling through the shared store (loaded
// under a supersim/internal/cluster/... import path, inside the durable
// scope). Its 202 is honest because submit reaches AppendSync across the
// package boundary; a private journal with an async accept is not.
package coordfix

import (
	"supersim/internal/journal"
	"supersim/internal/server/storefix"
)

type coordinator struct {
	store *storefix.Store
	own   *journal.Journal
}

type dispatchRec struct{ ID string }

// submit reaches AppendSync two calls deep, through the shared store.
func (c *coordinator) submit(id string) error { return c.store.Accept(id) }

func (c *coordinator) handleSubmit(id string) {
	if c.submit(id) != nil {
		return
	}
	reply(202)
}

// settle records verdicts through the store's async finish: correct.
func (c *coordinator) settle(id string) { c.store.Finish(id) }

// ackFirst acknowledges before the store has journaled anything.
func (c *coordinator) ackFirst(id string) {
	reply(202) // want `no journal.AppendSync earlier`
	c.store.Accept(id)
}

// acceptOwn is the forked lifecycle: a journal of the coordinator's own,
// with the accept on the batched path.
func (c *coordinator) acceptOwn(id string) {
	c.own.Append("accept", dispatchRec{ID: id}) // want `accept record journaled with the async Append`
	reply(202)                                  // want `no journal.AppendSync earlier`
}

func reply(code int) {}
