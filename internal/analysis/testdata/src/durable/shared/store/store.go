// Fixture: the shared job store (loaded under a supersim/internal/server/...
// import path). Accept is the one synchronous append; a second daemon's
// accept path is durable exactly when it goes through it.
package storefix

import "supersim/internal/journal"

type Store struct{ j *journal.Journal }

type record struct{ ID string }

// Accept journals an acknowledged job, fsynced.
func (s *Store) Accept(id string) error {
	_, err := s.j.AppendSync("accept", record{ID: id})
	return err
}

// Finish journals a terminal transition; async by design.
func (s *Store) Finish(id string) {
	s.j.Append("finish", record{ID: id})
}
