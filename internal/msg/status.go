package msg

import (
	"errors"
	"fmt"
	"strings"
)

// Code is the class of a failed call: the thing a caller branches on. The
// codes belong to the protocols — each keeps one table beside its sentinel
// errors (core/status.go, lfs/protocol.go) — so a code means nothing apart
// from the protocol whose reply carried it.
type Code uint8

// Failure is why a call failed: its class, and a detail for people (the
// text of the error the callee saw). Nothing classifies a failure by its
// detail.
type Failure struct {
	Code   Code
	Detail string
}

// Status is the one way a reply says whether its call failed. Every reply
// body of the Bridge, LFS and agent protocols embeds one, and so does every
// per-item result of a vectored reply and a tool worker's completion. It is
// a single word, nil on success, so that a reply that is nothing but its
// status (core.SeqWriteResp, lfs.CreateResp) lives in the interface word of
// Message.Body and a successful call allocates nothing to say so; only a
// failure pays for its code and detail.
type Status struct{ Fail *Failure }

// Failed is the status of a call that failed with the given class.
func Failed(code Code, detail string) Status {
	return Status{Fail: &Failure{Code: code, Detail: detail}}
}

// Outcome returns the status itself. It is the method embedding promotes
// onto every reply body, which makes every reply body a Reply.
func (s Status) Outcome() Status { return s }

// OK reports whether the call succeeded.
func (s Status) OK() bool { return s.Fail == nil }

// Code returns the failure's class, zero for a success.
func (s Status) Code() Code {
	if s.Fail == nil {
		return 0
	}
	return s.Fail.Code
}

// Detail returns the failure's text, "" for a success.
func (s Status) Detail() string {
	if s.Fail == nil {
		return ""
	}
	return s.Fail.Detail
}

// Err turns a status back into an error of the given class, the sentinel
// its code stands for: nil for a success; otherwise an error that
// errors.Is class, and reads as the detail with, in front, each sentinel of
// class (class itself, or each error it joins) whose text the detail does
// not already hold, so no sentinel is said twice. An empty detail gives
// class itself; a nil class gives the detail alone.
func (s Status) Err(class error) error {
	text := s.Detail()
	switch {
	case s.OK():
		return nil
	case class == nil:
		return errors.New(text)
	case text == "":
		return class
	}
	sentinels := []error{class}
	if j, ok := class.(interface{ Unwrap() []error }); ok {
		sentinels = j.Unwrap()
	}
	for i := len(sentinels) - 1; i >= 0; i-- {
		if p := sentinels[i].Error(); !strings.Contains(text, p) {
			text = p + ": " + text
		}
	}
	return &statusError{text: text, class: class}
}

// statusError is a failure rebuilt from a status: its text, and its class.
type statusError struct {
	text  string
	class error
}

func (e *statusError) Error() string { return e.text }
func (e *statusError) Unwrap() error { return e.class }

// Reply is any body that answers a request: it embeds a Status. A bare
// Status is itself a Reply, the one a server gives to a request it does not
// know and so cannot answer in kind.
type Reply interface{ Outcome() Status }

// StatusOf returns the status a reply body carries; ok is false for a body
// that is not a reply.
func StatusOf(body any) (st Status, ok bool) {
	r, ok := body.(Reply)
	if !ok {
		return Status{}, false
	}
	return r.Outcome(), true
}

// ReplyAs ends a call: given what Call or Await returned, it returns the
// reply as the kind the caller expects, with its status for the caller's
// protocol to turn into an error. A failed reply of another kind — the bare
// status of a server that did not know the request — comes back as that
// failure over T's zero value; any other body is an error, not a panic.
func ReplyAs[T Reply](m *Message, err error) (T, Status, error) {
	var zero T
	if err != nil {
		return zero, Status{}, err
	}
	if r, ok := m.Body.(T); ok {
		return r, r.Outcome(), nil
	}
	if st, ok := StatusOf(m.Body); ok && !st.OK() {
		return zero, st, nil
	}
	return zero, Status{}, fmt.Errorf("msg: %v answered with %T where %T was expected", m.From, m.Body, zero)
}
