package msg

import (
	"fmt"
	"reflect"
	"unsafe"

	"bridge/internal/sim"
)

// A protocol is declared once, in a command table. An entry pairs a request
// type with its reply type — the type parameters of its registration, so an
// entry cannot name one without the other — and carries the command's span
// name, what each of its bodies costs on the wire and the handler of the
// process that serves it. A serving loop finds a request's entry, names its
// span after it, runs its handler and prices the reply from the table; the
// TCP transport registers every body a table declares.

// Def declares one command of a protocol served by S. A nil price charges
// the table's default; every func is optional. A handler's error becomes
// its reply's status, through the table's classifier.
type Def[S, Req, Resp any] struct {
	Name     string
	ReqSize  func(Req) int
	RespSize func(Resp) int
	Route    func(Req) (string, bool) // the name a client routes the request by
	OpID     func(Req) uint64         // what a retransmitted copy is recognised by
	Serve    func(srv S, p sim.Proc, from Addr, r Req) (Resp, error)
	// Box boxes a reply, for a command that answers some replies with one
	// shared boxed value instead of allocating each.
	Box func(Resp) any
}

// Command is a table entry with its types erased.
type Command[S any] struct {
	Name  string
	Route func(req any) (string, bool)
	OpID  func(req any) uint64
	// Status is a reply of the command's own kind carrying only st.
	Status func(st Status) any
	Serve  func(srv S, p sim.Proc, from Addr, req any) any
	bodies []any           // a zero request, and a zero reply unless one-way
	prices []func(any) int // of each body, nil for the default
	fail   func(error) Status
	table  *Table[S]
}

// Cmd registers a command.
func Cmd[S, Req, Resp any](d Def[S, Req, Resp]) *Command[S] {
	offset, embeds := statusField[Resp]()
	c := &Command[S]{Name: d.Name, Route: noRoute, OpID: noOpID,
		bodies: []any{*new(Req), *new(Resp)}, prices: []func(any) int{erase(d.ReqSize), erase(d.RespSize)}}
	if embeds {
		c.Status = func(st Status) any {
			var r Resp
			setStatus(&r, offset, st)
			return r
		}
	}
	if d.Route != nil {
		c.Route = func(req any) (string, bool) { return d.Route(req.(Req)) }
	}
	if d.OpID != nil {
		c.OpID = func(req any) uint64 { return d.OpID(req.(Req)) }
	}
	if d.Serve != nil {
		if !embeds {
			panic(fmt.Sprintf("msg: reply %v of a served command embeds no Status", reflect.TypeFor[Resp]()))
		}
		c.Serve = func(srv S, p sim.Proc, from Addr, req any) any {
			r, err := d.Serve(srv, p, from, req.(Req))
			if err != nil {
				setStatus(&r, offset, c.fail(err))
			}
			if d.Box != nil {
				return d.Box(r)
			}
			return r
		}
	}
	return c
}

// Size is what body costs on the wire. The command's own request and reply
// are priced without a lookup in the table.
func (c *Command[S]) Size(body any) int {
	t := reflect.TypeOf(body)
	for i, b := range c.bodies {
		if reflect.TypeOf(b) != t {
			continue
		}
		if c.prices[i] == nil {
			return c.table.price
		}
		return c.prices[i](body)
	}
	n, _ := c.table.Price(body)
	return n
}

// OneWay registers a body sent without a reply: only its price.
func OneWay[S, T any](size func(T) int) *Command[S] {
	return &Command[S]{bodies: []any{*new(T)}, prices: []func(any) int{erase(size)}}
}

// Flat is a price that does not depend on the body.
func Flat[T any](n int) func(T) int { return func(T) int { return n } }

func noRoute(any) (string, bool) { return "", false }
func noOpID(any) uint64          { return 0 }

func erase[T any](f func(T) int) func(any) int {
	if f == nil {
		return nil
	}
	return func(b any) int { return f(b.(T)) }
}

// statusField finds the Status a reply type embeds.
func statusField[Resp any]() (offset uintptr, embeds bool) {
	field, ok := reflect.TypeFor[Resp]().FieldByName("Status")
	return field.Offset, ok && len(field.Index) == 1 && field.Type == reflect.TypeFor[Status]()
}

// setStatus writes a reply's status in place, at its embedded field's offset:
// code generic over the reply type can do no better, and the reply stays on
// the stack until it is boxed, as a composite literal's would.
func setStatus[Resp any](r *Resp, offset uintptr, st Status) {
	*(*Status)(unsafe.Add(unsafe.Pointer(r), offset)) = st
}

// Table is a protocol's command set.
type Table[S any] struct {
	list    []*Command[S]
	byReq   map[reflect.Type]*Command[S]
	prices  map[reflect.Type]func(any) int
	price   int
	unknown *Command[S]
}

// NewTable indexes a command set. price is what a body costs whose entry
// sets none, or that the table does not declare; fail classifies a
// handler's error; a request the table does not declare is answered with
// the bare status of unknown's error.
func NewTable[S any](price int, fail func(error) Status, unknown func(req any) error, cmds ...*Command[S]) *Table[S] {
	t := &Table[S]{list: cmds, byReq: map[reflect.Type]*Command[S]{}, prices: map[reflect.Type]func(any) int{}, price: price,
		unknown: &Command[S]{Name: "unknown", Route: noRoute, OpID: noOpID,
			Status: func(st Status) any { return st },
			Serve:  func(_ S, _ sim.Proc, _ Addr, req any) any { return fail(unknown(req)) }}}
	t.unknown.table = t
	for _, c := range cmds {
		c.fail, c.table = fail, t
		if c.Serve != nil {
			t.byReq[reflect.TypeOf(c.bodies[0])] = c
		}
		for _, b := range c.bodies {
			t.prices[reflect.TypeOf(b)] = c.Size
		}
	}
	return t
}

// Of returns the entry of a request.
func (t *Table[S]) Of(req any) *Command[S] {
	if c, ok := t.byReq[reflect.TypeOf(req)]; ok {
		return c
	}
	return t.unknown
}

// Price is what a body costs on the wire; ok is false, and the price the
// default, for a body the table does not declare.
func (t *Table[S]) Price(body any) (n int, ok bool) {
	if size, ok := t.prices[reflect.TypeOf(body)]; ok {
		return size(body), true
	}
	return t.price, false
}

// Bodies returns a zero value of every body the table declares, in
// declaration order.
func (t *Table[S]) Bodies() []any {
	var out []any
	for _, c := range t.list {
		out = append(out, c.bodies...)
	}
	return out
}
