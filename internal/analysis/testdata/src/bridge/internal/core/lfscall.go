package core

// The file that adds the server's part of the rule uses the client freely.
func (s *Server) lfsFinish(id uint64) error {
	_, err := s.lc.Await(id)
	return err
}
