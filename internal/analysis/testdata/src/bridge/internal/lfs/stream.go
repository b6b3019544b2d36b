package lfs

// Stream is the windowed stream: the one place outside client.go that polls.
type Stream struct {
	C     *Client
	calls []uint64
}

func (st *Stream) Step() bool {
	for _, id := range st.calls {
		if _, ok := st.C.Poll(id); ok {
			return true
		}
	}
	return false
}
