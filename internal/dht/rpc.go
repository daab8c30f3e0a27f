package dht

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/rng"
)

// The rpc backend.
//
// The paper compares its RDMA-backed key-value store with a TCP/IP fallback,
// and simtime prices both from published latencies.  This is the only engine
// with a real transport, so the only source of a measured round trip: every
// shard operation crosses a loopback socket to a server goroutine running
// the mem engine, the client times each call, and the averages calibrate a
// simtime.Measured cost model (Store.MeasuredCostModel) to set beside the
// modeled TCP one.
//
// A frame is a 4-byte little-endian body length and the body.  A request
// body is an op (read, write or delete keys), the shard and the key count
// as uvarints, then each key as 8 little-endian bytes, a write's key
// followed by its value as a uvarint length and the bytes.  A frame
// addresses one shard; Get and Put are one-key frames.  A reply body starts
// with a status byte: ok, unavailable (a failed shard without a replica),
// or error followed by the error's text.  An ok read reply goes on with the
// failover count and, per key, a present flag (uvarints) and a present
// value's uvarint length and bytes.  A frame past rpcMaxFrame, or a body
// that does not parse, is an error, never a panic.
//
// The caller writes its frame and reads the reply on its own goroutine, over
// a connection checked out of an idle list, building the request in the
// connection's scratch buffer; the server runs one goroutine per connection.
// A read reply is read into one exactly sized buffer, and the values
// returned are capacity-clipped slices of it: one allocation per reply.
// Every healthy connection returns to the idle list, so there are as many
// as the peak number of concurrent calls.  A call that fails on its
// connection (closed locally, as the drops a FaultPlan injects via PDrop
// are) is re-sent once on a fresh one; a loopback connection only breaks
// that way, before the request is written, so the re-send cannot apply a
// write twice.  The simulation control plane (FailShard, RecoverShard,
// LenShard, Range, Reserve) models operator actions, not client traffic,
// and acts on the in-process engine directly.

var errRPCClosed = errors.New("dht: rpc backend is closed")

// rpcConn is one client connection: the socket, its read buffer and the
// scratch buffer request frames are built in.
type rpcConn struct {
	net.Conn
	r   *bufio.Reader
	buf []byte
}

// roundTrip sends req and decodes the reply into vals and oks (nil unless
// req is a read).  A read reply is read into a fresh buffer, which the
// values alias; any other into the scratch buffer.  healthy reports that
// the connection can carry the next call.
func (c *rpcConn) roundTrip(req *rpcRequest, vals [][]byte, oks []bool) (failovers int, healthy bool, err error) {
	if c.buf, err = appendFrame(c.buf[:0], req); err != nil {
		return 0, true, err
	}
	if _, err = c.Write(c.buf); err == nil {
		var body []byte
		if req.op == rpcRead {
			body, err = readFrame(c.r, nil)
		} else {
			body, err = readFrame(c.r, c.buf)
			c.buf = body
		}
		if err == nil {
			failovers, err = decodeReply(body, vals, oks)
			return failovers, true, err
		}
	}
	return 0, false, err
}

// rpcBackend is the client side: it implements ShardBackend by calling the
// loopback server over pooled connections and timing every round trip.
type rpcBackend struct {
	engine   *memBackend // server-side engine (control plane, Stats)
	listener net.Listener
	sockDir  string // non-empty when a unix socket file needs cleanup
	faults   *FaultPlan

	mu     sync.Mutex
	idle   []*rpcConn
	dials  int
	closed bool

	serving   sync.WaitGroup // accept loop + one goroutine per connection
	closeOnce sync.Once
	closeErr  error

	dropSeq    atomic.Uint64
	reconnects atomic.Int64
	readOps    atomic.Int64
	writeOps   atomic.Int64
	wireBytes  atomic.Int64
	readNS     atomic.Int64
	writeNS    atomic.Int64
}

// newRPCBackend starts a per-store server on a loopback listener: TCP on
// 127.0.0.1, or a unix socket where loopback TCP is forbidden.  A FaultPlan
// with PDrop > 0 makes the client drop its connection before a seeded
// subset of calls, exercising the reconnect path.
func newRPCBackend(shards int, replicate bool, faults *FaultPlan) (*rpcBackend, error) {
	b := &rpcBackend{engine: newMemBackend(shards, replicate), faults: faults}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dir, derr := os.MkdirTemp("", "dht-rpc-*")
		if derr != nil {
			return nil, fmt.Errorf("dht: rpc listen failed (tcp: %v, tmpdir: %v)", err, derr)
		}
		if ln, derr = net.Listen("unix", filepath.Join(dir, "store.sock")); derr != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("dht: rpc listen failed (tcp: %v, unix: %v)", err, derr)
		}
		b.sockDir = dir
	}
	b.listener = ln
	// The accept loop holds a WaitGroup slot, so the per-connection Adds
	// cannot race a Close that is already Waiting.
	b.serving.Add(1)
	go func() {
		defer b.serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b.serving.Add(1)
			go func() {
				defer b.serving.Done()
				serveFrames(b.engine, conn, conn)
				conn.Close()
			}()
		}
	}()
	return b, nil
}

func (b *rpcBackend) Kind() BackendKind { return BackendRPC }

// getConn checks a connection out of the idle list, or dials one.
func (b *rpcBackend) getConn() (*rpcConn, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return c, nil
	}
	closed := b.closed // Close empties the idle list
	if !closed {
		b.dials++
	}
	b.mu.Unlock()
	if closed {
		return nil, errRPCClosed
	}
	addr := b.listener.Addr()
	nc, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		return nil, fmt.Errorf("dht: dialing rpc server: %w", err)
	}
	return &rpcConn{Conn: nc, r: bufio.NewReader(nc)}, nil
}

// putConn returns a healthy connection to the idle list, or closes it once
// the backend is closed.
func (b *rpcBackend) putConn(c *rpcConn) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		c.Close()
		return
	}
	b.idle = append(b.idle, c)
}

// call sends req, decodes the reply into vals and oks, and adds the round
// trip and the payload estimate — request bytes, then the values read — to
// the counters.
func (b *rpcBackend) call(req *rpcRequest, payload int, vals [][]byte, oks []bool) (int, error) {
	start := time.Now()
	failovers, err := b.send(req, vals, oks)
	if rtt := int64(time.Since(start)); req.op == rpcRead {
		b.readOps.Add(1)
		b.readNS.Add(rtt)
	} else {
		b.writeOps.Add(1)
		b.writeNS.Add(rtt)
	}
	if err != nil {
		if err != ErrUnavailable {
			err = fmt.Errorf("dht: rpc %s on shard %d: %w", rpcOpNames[req.op], req.shard, err)
		}
		vals = nil // a failed read moved no value bytes
	}
	for _, v := range vals {
		payload += len(v)
	}
	b.wireBytes.Add(int64(payload))
	return failovers, err
}

// send sends req over a pooled connection.  A connection that fails is
// dropped and the call re-sent once on a fresh one.  A FaultPlan with PDrop
// closes the checked-out connection before a seeded subset of calls: the
// write fails, so the re-send applies the request exactly once.
func (b *rpcBackend) send(req *rpcRequest, vals [][]byte, oks []bool) (int, error) {
	c, err := b.getConn()
	if err != nil {
		return 0, err
	}
	if p := b.faults; p != nil && p.PDrop > 0 && rng.UniformFloat(p.Seed^faultSaltDrop, b.dropSeq.Add(1)) < p.PDrop {
		c.Close()
	}
	for resent := false; ; resent = true {
		failovers, healthy, err := c.roundTrip(req, vals, oks)
		if healthy {
			b.putConn(c)
			return failovers, err
		}
		c.Close()
		if resent || !isConnError(err) {
			return 0, err
		}
		var derr error
		if c, derr = b.getConn(); derr != nil {
			return 0, fmt.Errorf("reconnect after %v: %w", err, derr)
		}
		b.reconnects.Add(1)
	}
}

// isConnError reports whether err is a connection failure, after which the
// call is re-sent, rather than a reply that could not be read.
func isConnError(err error) bool {
	var netErr net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &netErr)
}

func (b *rpcBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	keys := [1]uint64{key}
	var vals [1][]byte
	var oks [1]bool
	failovers, err := b.call(&rpcRequest{op: rpcRead, shard: shard, keys: keys[:]}, 8, vals[:], oks[:])
	if err != nil {
		return nil, false, false, err
	}
	return vals[0], oks[0], failovers > 0, nil
}

func (b *rpcBackend) Put(shard int, key uint64, value []byte) error {
	pairs := [1]Pair{{Key: key, Value: value}}
	_, err := b.call(&rpcRequest{op: rpcWrite, shard: shard, pairs: pairs[:]}, 8+len(value), nil, nil)
	return err
}

func (b *rpcBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	vals, oks := make([][]byte, len(keys)), make([]bool, len(keys))
	failovers, err := b.call(&rpcRequest{op: rpcRead, shard: shard, keys: keys}, 8*len(keys), vals, oks)
	if err != nil {
		return nil, nil, 0, err
	}
	return vals, oks, failovers, nil
}

func (b *rpcBackend) BatchWrite(shard int, pairs []Pair) error {
	payload := 0
	for _, p := range pairs {
		payload += 8 + len(p.Value)
	}
	_, err := b.call(&rpcRequest{op: rpcWrite, shard: shard, pairs: pairs}, payload, nil, nil)
	return err
}

func (b *rpcBackend) BatchDelete(shard int, keys []uint64) error {
	_, err := b.call(&rpcRequest{op: rpcDelete, shard: shard, keys: keys}, 8*len(keys), nil, nil)
	return err
}

func (b *rpcBackend) Freeze() error { return nil }

func (b *rpcBackend) FailShard(shard int) { b.engine.FailShard(shard) }

func (b *rpcBackend) RecoverShard(shard int) error { return b.engine.RecoverShard(shard) }

func (b *rpcBackend) LenShard(shard int) int { return b.engine.LenShard(shard) }

func (b *rpcBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	return b.engine.Range(shard, fn)
}

func (b *rpcBackend) Reserve(keys int) { b.engine.Reserve(keys) }

func (b *rpcBackend) Stats() BackendStats {
	return BackendStats{
		Kind:          BackendRPC,
		ResidentBytes: b.engine.Stats().ResidentBytes,
		WireReadOps:   b.readOps.Load(),
		WireWriteOps:  b.writeOps.Load(),
		WireBytes:     b.wireBytes.Load(),
		WireReadTime:  time.Duration(b.readNS.Load()),
		WireWriteTime: time.Duration(b.writeNS.Load()),
		Reconnects:    b.reconnects.Load(),
	}
}

// Close shuts the backend down: no connection is dialed or accepted any
// more, the idle connections are closed now and the checked-out ones when
// their calls return — each close ends the server goroutine at its other
// end — and the WaitGroup drains the accept loop and those goroutines
// before the socket directory is removed.  Close is idempotent.
func (b *rpcBackend) Close() error {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		idle := b.idle
		b.idle = nil
		b.mu.Unlock()
		for _, c := range idle {
			c.Close()
		}
		b.closeErr = b.listener.Close()
		b.serving.Wait()
		if b.sockDir != "" {
			os.RemoveAll(b.sockDir)
		}
	})
	return b.closeErr
}
