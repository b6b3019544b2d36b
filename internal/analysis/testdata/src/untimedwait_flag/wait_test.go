package untimedwait_flag

import "bridge/internal/msg"

// Tests may wait as they like.
func waitInTest(c *msg.Client, id uint64) { _, _ = c.Await(id) }
