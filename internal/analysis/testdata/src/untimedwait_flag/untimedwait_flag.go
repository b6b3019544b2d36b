// Package untimedwait_flag waits on a msg.Client outside lfs.Client.
package untimedwait_flag

import (
	"time"

	"bridge/internal/lfs"
	"bridge/internal/msg"
)

func Unbounded(c *msg.Client) error {
	_, err := c.Call("req") // want `msg\.Client\.Call waits for a reply outside lfs\.Client`
	return err
}

// A bound of one's own is still a rule of one's own.
func OwnBound(c *msg.Client, id uint64) error {
	_, err := c.AwaitTimeout(id, time.Second) // want `msg\.Client\.AwaitTimeout waits`
	return err
}

func Poll(c *msg.Client, id uint64) bool {
	_, ok := c.TryAwait(id) // want `msg\.Client\.TryAwait waits`
	return ok
}

// A tool keeping its own window polls outside the stream.
func ToolPoll(lc *lfs.Client, id uint64) bool {
	_, ok := lc.Poll(id) // want `lfs\.Client\.Poll outside the windowed stream`
	return ok
}

// The client protocol is not a call to a storage node.
func Allowed(c *msg.Client, id uint64) error {
	_, err := c.Await(id) //bridgevet:allow untimedwait — the fixture's client protocol
	return err
}
