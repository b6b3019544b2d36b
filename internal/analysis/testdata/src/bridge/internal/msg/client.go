// Package msg stands in for the message layer: the one package whose own
// reply waits untimedwait does not flag.
package msg

import "time"

type Message struct{ ReqID uint64 }

type Client struct{ next uint64 }

func (c *Client) Start(body any) (uint64, error) { c.next++; return c.next, nil }
func (c *Client) Discard(id uint64)              {}

func (c *Client) Await(id uint64) (*Message, error) { return &Message{ReqID: id}, nil }
func (c *Client) AwaitTimeout(id uint64, d time.Duration) (*Message, error) {
	return c.Await(id)
}
func (c *Client) TryAwait(id uint64) (*Message, bool) { return nil, false }

// Call is Start and Await back to back: a wait inside the package is fine.
func (c *Client) Call(body any) (*Message, error) {
	id, err := c.Start(body)
	if err != nil {
		return nil, err
	}
	return c.Await(id)
}
