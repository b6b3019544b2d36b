// Package core is the fixture's Bridge Server: outside lfscall.go its
// lfs.Client only abandons a call.
package core

import "bridge/internal/lfs"

type Server struct{ lc *lfs.Client }

func (s *Server) bypass(id uint64) error {
	_, err := s.lc.Await(id) // want `the server's lfs\.Client\.Await outside lfscall\.go skips LFSRetry`
	return err
}

func (s *Server) abandon(id uint64) { s.lc.Discard(id) }

// Another lfs.Client in the package, a shutdown sync's, is not the server's.
func syncAll(lc *lfs.Client, id uint64) error {
	_, err := lc.Await(id)
	return err
}
