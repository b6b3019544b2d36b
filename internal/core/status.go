package core

import (
	"errors"
	"fmt"

	"bridge/internal/distrib"
	"bridge/internal/msg"
)

// The Bridge protocol's failure classes: what the msg.Status embedded in
// every Bridge reply (and every scatter result) holds when the call failed.
// The server picks the code while the error is still a Go value (statusFor);
// the client rebuilds the sentinel from it (statusErr). The detail — the
// server-side error's text — closes spans and is shown to people; nothing
// reads a class out of it.
const (
	codeOther msg.Code = iota + 1 // no class: an opaque error with its text
	codeNotFound
	codeExists
	codeEOF
	codeBadBlock
	codeNoJob
	codeBadArg
	codeNodeDown
	codeLFSFailed
	codeLFSCorrupt // ErrLFSFailed and ErrCorrupt at once
	codeDeferredWrite
	codeNotLeader
	codeCrossShard
	codeSkipped
	codeCorrupt
	codeNeedSize
)

// errLFSCorrupt is the one failure with two classes: a storage node's
// operation failed (ErrLFSFailed) because it found corruption (ErrCorrupt).
// Read-repair keys on the second, everything else on the first.
var errLFSCorrupt = fmt.Errorf("%w: %w", ErrLFSFailed, ErrCorrupt)

// classes is the one table between the codes and the sentinels they stand
// for; statusFor reads it one way and statusErr the other.
var classes = [...]error{
	codeNotFound:      ErrNotFound,
	codeExists:        ErrExists,
	codeEOF:           ErrEOF,
	codeBadBlock:      ErrBadBlock,
	codeNoJob:         ErrNoJob,
	codeBadArg:        ErrBadArg,
	codeNodeDown:      ErrNodeDown,
	codeLFSFailed:     ErrLFSFailed,
	codeLFSCorrupt:    errLFSCorrupt,
	codeDeferredWrite: ErrDeferredWrite,
	codeNotLeader:     ErrNotLeader,
	codeCrossShard:    ErrCrossShard,
	codeSkipped:       ErrSkipped,
	codeCorrupt:       ErrCorrupt,
	codeNeedSize:      distrib.ErrNeedSize,
}

// statusFor is the server's half: the status a reply embeds for err. The
// code is the first class in the table the error is; an LFS failure that is
// also a corruption — the storage node's status is wrapped with %w, so it is
// still typed here — takes the code that stands for both.
func statusFor(err error) msg.Status {
	if err == nil {
		return msg.Status{}
	}
	for c := codeNotFound; int(c) < len(classes); c++ {
		if errors.Is(err, classes[c]) {
			if c == codeLFSFailed && errors.Is(err, ErrCorrupt) {
				c = codeLFSCorrupt
			}
			return msg.Failed(c, err.Error())
		}
	}
	return msg.Failed(codeOther, err.Error())
}

// statusErr is the client's half: nil for a success, otherwise the code's
// sentinel wrapped around the detail, so errors.Is works across the message
// boundary. A code outside the table is an opaque error with the detail's
// text.
func statusErr(st msg.Status) error {
	if st.OK() {
		return nil
	}
	if c := int(st.Code()); c < len(classes) && classes[c] != nil {
		return fmt.Errorf("%w (%s)", classes[c], st.Detail())
	}
	return errors.New(st.Detail())
}

// reply ends every client call: the transport error, or else the reply as
// the kind the call expects with its status as an error.
func reply[T msg.Reply](m *msg.Message, err error) (T, error) {
	r, st, err := msg.ReplyAs[T](m, err)
	if err == nil {
		err = statusErr(st)
	}
	return r, err
}

// respStatus is the status that speaks for a reply as a whole: what closes
// its spans, decides whether it is a cacheable success, and tells the client
// a redirect from an answer. For a scatter that is the request's own
// failure, or else its first failed item's: a partly failed scatter is not a
// cacheable success, and redirects like any other reply when the item failed
// for want of leadership.
func respStatus(body any) msg.Status {
	st, _ := msg.StatusOf(body)
	if sc, ok := body.(ScatterResp); ok && st.OK() {
		for i := range sc.Results {
			if !sc.Results[i].OK() {
				return sc.Results[i].Status
			}
		}
	}
	return st
}

// deferredErr is a deferred-write failure whose text has been through the
// replicated log: the log keeps an error as its text (rop.ErrS), and every
// text it has ever held is an ErrDeferredWrite's.
type deferredErr string

func (e deferredErr) Error() string { return string(e) }
func (e deferredErr) Unwrap() error { return ErrDeferredWrite }
