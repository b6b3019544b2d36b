// Package untimedwait_clean starts and abandons calls, and waits through
// lfs.Client: nothing to flag.
package untimedwait_clean

import (
	"bridge/internal/lfs"
	"bridge/internal/msg"
)

// Await is the lfs.Client's, not the msg.Client's.
func Bounded(lc *lfs.Client, c *msg.Client) error {
	id, err := c.Start("req")
	if err != nil {
		return err
	}
	_, err = lc.Await(id)
	return err
}

func Abandon(c *msg.Client, id uint64) { c.Discard(id) }

// A method of the same name on another type is not a reply wait.
type queue struct{}

func (queue) Await(int) error { return nil }
func (queue) Poll(int) bool   { return false }

func Other(q queue) error {
	q.Poll(1)
	return q.Await(1)
}
