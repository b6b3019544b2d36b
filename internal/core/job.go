package core

import (
	"fmt"

	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Job is the controller side of a parallel open: "a parallel open operation
// groups several processes into a job. The process that issues the parallel
// open becomes the job controller."
type Job struct {
	ID   uint64
	Meta Meta
	c    *Client
	srv  msg.Addr // the server that owns this job
	t    int
}

// ParallelOpen groups the given worker addresses into a job on the file.
func (c *Client) ParallelOpen(name string, workers []msg.Addr) (*Job, error) {
	srv := c.serverFor(name)
	r, err := reply[ParallelOpenResp](c.callAt(srv, ParallelOpenReq{Name: name, Workers: workers, OpID: c.opID()}))
	if err != nil {
		return nil, err
	}
	return &Job{ID: r.JobID, Meta: r.Meta, c: c, srv: srv, t: len(workers)}, nil
}

// Workers returns the job width t.
func (j *Job) Workers() int { return j.t }

// Read transfers the next t blocks, one to each worker, with as much
// parallelism as the interleaving allows. It returns how many blocks went
// out and whether the file is exhausted.
func (j *Job) Read() (delivered int, eof bool, err error) {
	r, err := reply[ParallelReadResp](j.c.callAt(j.srv, ParallelReadReq{JobID: j.ID, OpID: j.c.opID()}))
	return r.Delivered, r.EOF, err
}

// Write appends up to t blocks, one received from each worker in parallel.
func (j *Job) Write() (written int, err error) {
	r, err := reply[ParallelWriteResp](j.c.callAt(j.srv, ParallelWriteReq{JobID: j.ID, OpID: j.c.opID()}))
	return r.Written, err
}

// Close releases the job state at the server.
func (j *Job) Close() error {
	_, err := reply[CloseJobResp](j.c.callAt(j.srv, CloseJobReq{JobID: j.ID, OpID: j.c.opID()}))
	return err
}

// JobWorker is the worker side of a parallel open. Each worker process
// creates one, registers its address with the job controller out of band,
// and then consumes blocks (reads) or supplies them (writes).
type JobWorker struct {
	net  *msg.Network
	node msg.NodeID
	port *msg.Port
}

// NewJobWorker creates a worker endpoint; name must be unique on the node.
func NewJobWorker(net *msg.Network, node msg.NodeID, name string) *JobWorker {
	return &JobWorker{
		net:  net,
		node: node,
		port: net.NewPort(msg.Addr{Node: node, Port: name}),
	}
}

// Addr is the address the controller passes to ParallelOpen.
func (w *JobWorker) Addr() msg.Addr { return w.port.Addr() }

// Close releases the worker port.
func (w *JobWorker) Close() { w.port.Close() }

// Next receives this worker's block from the current read round. ok is
// false if the port closed; WorkerData.EOF marks rounds past end of file.
func (w *JobWorker) Next(p sim.Proc) (WorkerData, bool) {
	for {
		m, ok := w.port.Recv(p)
		if !ok {
			return WorkerData{}, false
		}
		if d, isData := m.Body.(WorkerData); isData {
			return d, true
		}
		// Ignore stray pokes from a mixed read/write job.
	}
}

// Supply waits for the server's poke in a write round and responds with the
// given payload; eof tells the server this worker has no more data.
func (w *JobWorker) Supply(p sim.Proc, payload []byte, eof bool) error {
	m, ok := w.port.Recv(p)
	if !ok {
		return fmt.Errorf("%w: worker port closed", ErrNoJob)
	}
	poke, isPoke := m.Body.(WorkerPoke)
	if !isPoke {
		return fmt.Errorf("%w: expected poke, got %T", ErrBadArg, m.Body)
	}
	wb := WorkerBlock{JobID: poke.JobID, Seq: poke.Seq, Data: payload, EOF: eof}
	return w.net.Send(p, w.node, m.From, oneWayMsg(w.port.Addr(), wb))
}
