package lfs

import (
	"time"

	"bridge/internal/msg"
)

// Client is the file that holds the failure rule: its waits are the bounded
// ones, so untimedwait leaves them alone.
type Client struct{ C *msg.Client }

func (c *Client) Await(id uint64) (*msg.Message, error) {
	return c.C.AwaitTimeout(id, time.Minute)
}

func (c *Client) Discard(id uint64) { c.C.Discard(id) }

// Poll takes a reply that has already arrived.
func (c *Client) Poll(id uint64) (*msg.Message, bool) { return c.C.TryAwait(id) }
