// Package core is the fixture's Bridge Server: outside lfscall.go its
// lfs.Client only abandons a call, and polls none.
package core

import "bridge/internal/lfs"

type Server struct{ lc *lfs.Client }

func (s *Server) bypass(id uint64) error {
	_, err := s.lc.Await(id) // want `the server's lfs\.Client\.Await outside lfscall\.go skips LFSRetry`
	return err
}

func (s *Server) abandon(id uint64) { s.lc.Discard(id) }

// A poll is the windowed stream's alone.
func (s *Server) peek(id uint64) bool {
	_, ok := s.lc.Poll(id) // want `lfs\.Client\.Poll outside the windowed stream`
	return ok
}

// Another lfs.Client in the package, a shutdown sync's, is not the server's.
func syncAll(lc *lfs.Client, id uint64) error {
	_, err := lc.Await(id)
	return err
}
