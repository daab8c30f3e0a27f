package dht

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/rng"
)

// The rpc backend.
//
// The paper's Table 4 compares the RDMA-backed key-value store against a
// TCP/IP RPC fallback; the simulated cost models in simtime encode those
// published latencies, but nothing in this repository had ever validated the
// shape of the split against a real transport.  The rpc backend closes that
// loop: shard storage lives behind a net/rpc server (wrapping the same
// in-memory engine as the mem backend) reached over a loopback connection, so
// every operation pays real serialization (encoding/gob) and kernel socket
// round trips.  The client times each call; the accumulated averages calibrate
// a simtime.Measured cost model via Store.MeasuredCostModel, which can then be
// compared against the simulated TCP model.
//
// The client side keeps a small pool of connections and reconnects on
// connection errors: a call that fails before reaching the server (a closed
// or dropped connection, including the drops a FaultPlan injects via PDrop)
// is re-sent once on a fresh connection.  On this loopback transport a
// connection only breaks by being closed locally — before the request is
// written — so the re-send cannot double-apply a write.  The server tracks
// every ServeConn in a WaitGroup and Close drains them (net/rpc itself waits
// for in-flight handlers before ServeConn returns), so a closed store leaks
// no goroutines.
//
// net/rpc requires exported service methods with exported argument and reply
// types, hence the Wire* types below.  Errors returned by a service method
// cross the wire as strings, which would break errors.Is(err, ErrUnavailable)
// on the client side — so shard unavailability travels as the Unavailable
// reply flag and is rewrapped into ErrUnavailable by the client.  Simulation
// control-plane operations (FailShard, RecoverShard, LenShard, Range) do not
// cross the wire at all: the server engine lives in-process, so they act on
// it directly instead of growing panicking rpc paths.

// WireGetArgs / WireGetReply carry a single-key read.
type WireGetArgs struct {
	Shard int
	Key   uint64
}

type WireGetReply struct {
	Value       []byte
	OK          bool
	Failover    bool
	Unavailable bool
}

// WirePutArgs carries a single-key put.
type WirePutArgs struct {
	Shard int
	Key   uint64
	Value []byte
}

// WireBatchGetArgs / WireBatchGetReply carry a one-shard batched read.
type WireBatchGetArgs struct {
	Shard int
	Keys  []uint64
}

type WireBatchGetReply struct {
	Values      [][]byte
	OKs         []bool
	Failovers   int
	Unavailable bool
}

// WireBatchWriteArgs carries a one-shard batched write.
type WireBatchWriteArgs struct {
	Shard int
	Pairs []Pair
}

// WireBatchDeleteArgs carries a one-shard batched delete (shard migration).
type WireBatchDeleteArgs struct {
	Shard int
	Keys  []uint64
}

// WireNone is the empty argument/reply.
type WireNone struct{}

// StoreService is the server side of the rpc backend: a net/rpc service
// wrapping the in-memory shard engine.  It is exported only because net/rpc
// requires it; user code talks to Store, never to this type.
type StoreService struct {
	engine *memBackend
}

func (s *StoreService) Get(args *WireGetArgs, reply *WireGetReply) error {
	v, ok, failover, err := s.engine.Get(args.Shard, args.Key)
	if err != nil {
		reply.Unavailable = true
		return nil
	}
	reply.Value, reply.OK, reply.Failover = v, ok, failover
	return nil
}

func (s *StoreService) Put(args *WirePutArgs, reply *WireNone) error {
	return s.engine.Put(args.Shard, args.Key, args.Value)
}

func (s *StoreService) BatchGet(args *WireBatchGetArgs, reply *WireBatchGetReply) error {
	vals, oks, failovers, err := s.engine.BatchGet(args.Shard, args.Keys)
	if err != nil {
		reply.Unavailable = true
		return nil
	}
	reply.Values, reply.OKs, reply.Failovers = vals, oks, failovers
	return nil
}

func (s *StoreService) BatchWrite(args *WireBatchWriteArgs, reply *WireNone) error {
	return s.engine.BatchWrite(args.Shard, args.Pairs)
}

func (s *StoreService) BatchDelete(args *WireBatchDeleteArgs, reply *WireNone) error {
	return s.engine.BatchDelete(args.Shard, args.Keys)
}

// rpcPoolSize bounds the idle connection pool.  Two idle connections cover
// the common case (a data call concurrent with a hedged duplicate) without
// holding sockets a one-shot store never reuses.
const rpcPoolSize = 2

// rpcBackend is the client side: it implements ShardBackend by calling the
// loopback server over pooled connections and timing every round trip.
type rpcBackend struct {
	engine   *memBackend // server-side engine (control plane, Stats, Close)
	server   *rpc.Server
	listener net.Listener
	sockDir  string // non-empty when a unix socket file needs cleanup
	faults   *FaultPlan

	mu     sync.Mutex
	idle   []*rpc.Client
	live   map[*rpc.Client]struct{}
	closed bool

	serving sync.WaitGroup // accept loop + ServeConn goroutines

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

// errRPCClosed is returned by data operations on a closed rpc backend.
var errRPCClosed = errors.New("dht: rpc backend is closed")

// newRPCBackend starts a per-store net/rpc server on a loopback listener and
// opens a pooled client to it.  Each store gets its own rpc.Server (the
// package default server would reject a second StoreService registration).
// TCP on 127.0.0.1 is preferred; when the environment forbids loopback TCP a
// unix socket is used instead.  A non-nil FaultPlan with PDrop > 0 makes the
// client drop its connection before a seeded subset of calls, exercising the
// reconnect path.
func newRPCBackend(shards int, replicate bool, faults *FaultPlan) (*rpcBackend, error) {
	b := &rpcBackend{
		engine: newMemBackend(shards, replicate),
		server: rpc.NewServer(),
		faults: faults,
		live:   make(map[*rpc.Client]struct{}),
	}
	if err := b.server.RegisterName("Store", &StoreService{engine: b.engine}); err != nil {
		return nil, fmt.Errorf("dht: registering rpc service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dir, derr := os.MkdirTemp("", "dht-rpc-*")
		if derr != nil {
			return nil, fmt.Errorf("dht: rpc listen failed (tcp: %v, tmpdir: %v)", err, derr)
		}
		ln, derr = net.Listen("unix", filepath.Join(dir, "store.sock"))
		if derr != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("dht: rpc listen failed (tcp: %v, unix: %v)", err, derr)
		}
		b.sockDir = dir
	}
	b.listener = ln
	// Hand-rolled accept loop instead of rpc.Server.Accept: Accept logs a
	// spurious "use of closed network connection" line when Close shuts the
	// listener down.  The loop itself holds one WaitGroup slot, so the
	// ServeConn Adds below cannot race a Close that is already Waiting.
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
				b.server.ServeConn(conn)
			}()
		}
	}()
	c, err := b.dial()
	if err != nil {
		b.Close()
		return nil, err
	}
	b.putClient(c)
	return b, nil
}

func (b *rpcBackend) Kind() BackendKind { return BackendRPC }

// dial opens a fresh connection to the loopback server and registers the
// client in the live set.
func (b *rpcBackend) dial() (*rpc.Client, error) {
	addr := b.listener.Addr()
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		return nil, fmt.Errorf("dht: dialing rpc server: %w", err)
	}
	c := rpc.NewClient(conn)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		c.Close()
		return nil, errRPCClosed
	}
	b.live[c] = struct{}{}
	b.mu.Unlock()
	return c, nil
}

// getClient checks a connection out of the pool, dialing when it is empty.
func (b *rpcBackend) getClient() (*rpc.Client, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errRPCClosed
	}
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return c, nil
	}
	b.mu.Unlock()
	return b.dial()
}

// putClient returns a healthy connection to the pool, closing it when the
// pool is full or the backend has been closed.
func (b *rpcBackend) putClient(c *rpc.Client) {
	b.mu.Lock()
	if !b.closed && len(b.idle) < rpcPoolSize {
		b.idle = append(b.idle, c)
		b.mu.Unlock()
		return
	}
	delete(b.live, c)
	b.mu.Unlock()
	c.Close()
}

// discardClient drops a broken connection.
func (b *rpcBackend) discardClient(c *rpc.Client) {
	b.mu.Lock()
	delete(b.live, c)
	b.mu.Unlock()
	c.Close()
}

// isConnError reports whether err is a connection-level failure (as opposed
// to an application error returned by the remote service method): the call
// never produced a server-side reply, so re-sending it on a fresh connection
// is the right recovery.
func isConnError(err error) bool {
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}

// call invokes method over a pooled connection, reconnecting and re-sending
// once on a connection error.  A FaultPlan with PDrop closes the checked-out
// connection before a seeded subset of calls — the request never reaches the
// server, so the reconnect re-send applies it exactly once.
func (b *rpcBackend) call(method string, args, reply any) error {
	c, err := b.getClient()
	if err != nil {
		return err
	}
	if p := b.faults; p != nil && p.PDrop > 0 {
		if rng.UniformFloat(p.Seed^faultSaltDrop, b.dropSeq.Add(1)) < p.PDrop {
			b.discardClient(c) // the Call below fails with ErrShutdown
		}
	}
	err = c.Call(method, args, reply)
	if err == nil {
		b.putClient(c)
		return nil
	}
	b.discardClient(c)
	if !isConnError(err) {
		return err
	}
	c2, derr := b.dial()
	if derr != nil {
		return fmt.Errorf("dht: rpc reconnect after %v: %w", err, derr)
	}
	b.reconnects.Add(1)
	if err2 := c2.Call(method, args, reply); err2 != nil {
		b.discardClient(c2)
		return err2
	}
	b.putClient(c2)
	return nil
}

// timeCall invokes method over the wire, accumulating the measured round trip
// and an approximate payload size into the read or write counters.
func (b *rpcBackend) timeCall(method string, args, reply any, read bool, payload int) error {
	start := time.Now()
	err := b.call(method, args, reply)
	rtt := time.Since(start)
	if read {
		b.readOps.Add(1)
		b.readNS.Add(int64(rtt))
	} else {
		b.writeOps.Add(1)
		b.writeNS.Add(int64(rtt))
	}
	b.wireBytes.Add(int64(payload))
	return err
}

func (b *rpcBackend) Get(shard int, key uint64) ([]byte, bool, bool, error) {
	var reply WireGetReply
	err := b.timeCall("Store.Get", &WireGetArgs{Shard: shard, Key: key}, &reply, true, 8)
	if err != nil {
		return nil, false, false, fmt.Errorf("dht: rpc get: %w", err)
	}
	if reply.Unavailable {
		return nil, false, false, ErrUnavailable
	}
	b.wireBytes.Add(int64(len(reply.Value)))
	return reply.Value, reply.OK, reply.Failover, nil
}

func (b *rpcBackend) Put(shard int, key uint64, value []byte) error {
	var reply WireNone
	err := b.timeCall("Store.Put", &WirePutArgs{Shard: shard, Key: key, Value: value}, &reply, false, 8+len(value))
	if err != nil {
		return fmt.Errorf("dht: rpc put: %w", err)
	}
	return nil
}

func (b *rpcBackend) BatchGet(shard int, keys []uint64) ([][]byte, []bool, int, error) {
	var reply WireBatchGetReply
	err := b.timeCall("Store.BatchGet", &WireBatchGetArgs{Shard: shard, Keys: keys}, &reply, true, 8*len(keys))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dht: rpc batch get: %w", err)
	}
	if reply.Unavailable {
		return nil, nil, 0, ErrUnavailable
	}
	var respBytes int64
	for _, v := range reply.Values {
		respBytes += int64(len(v))
	}
	b.wireBytes.Add(respBytes)
	return reply.Values, reply.OKs, reply.Failovers, nil
}

func (b *rpcBackend) BatchWrite(shard int, pairs []Pair) error {
	payload := 0
	for _, p := range pairs {
		payload += 8 + len(p.Value)
	}
	var reply WireNone
	err := b.timeCall("Store.BatchWrite", &WireBatchWriteArgs{Shard: shard, Pairs: pairs}, &reply, false, payload)
	if err != nil {
		return fmt.Errorf("dht: rpc batch write: %w", err)
	}
	return nil
}

func (b *rpcBackend) BatchDelete(shard int, keys []uint64) error {
	var reply WireNone
	err := b.timeCall("Store.BatchDelete", &WireBatchDeleteArgs{Shard: shard, Keys: keys}, &reply, false, 8*len(keys))
	if err != nil {
		return fmt.Errorf("dht: rpc batch delete: %w", err)
	}
	return nil
}

func (b *rpcBackend) Freeze() error { return nil }

// The simulation control plane acts on the in-process server engine
// directly: these operations model operator actions, not client traffic, so
// there is nothing to measure by sending them over the wire — and the direct
// calls cannot fail the way an rpc call can, which is what let the previous
// panicking paths be removed.

func (b *rpcBackend) FailShard(shard int) { b.engine.FailShard(shard) }

func (b *rpcBackend) RecoverShard(shard int) error { return b.engine.RecoverShard(shard) }

func (b *rpcBackend) LenShard(shard int) int { return b.engine.LenShard(shard) }

func (b *rpcBackend) Range(shard int, fn func(key uint64, value []byte) bool) (bool, error) {
	return b.engine.Range(shard, fn)
}

func (b *rpcBackend) Reserve(keys int) { b.engine.Reserve(keys) }

func (b *rpcBackend) Stats() BackendStats {
	engine := b.engine.Stats()
	return BackendStats{
		Kind:          BackendRPC,
		ResidentBytes: engine.ResidentBytes,
		WireReadOps:   b.readOps.Load(),
		WireWriteOps:  b.writeOps.Load(),
		WireBytes:     b.wireBytes.Load(),
		WireReadTime:  time.Duration(b.readNS.Load()),
		WireWriteTime: time.Duration(b.writeNS.Load()),
		Reconnects:    b.reconnects.Load(),
	}
}

// Close shuts the backend down gracefully: no new connections are accepted
// or dialed, every pooled and checked-out connection is closed, and the
// WaitGroup drains the accept loop and every ServeConn — including the
// in-flight handlers net/rpc waits for — before the socket directory is
// removed.  Close is idempotent.
func (b *rpcBackend) Close() error {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		clients := make([]*rpc.Client, 0, len(b.live))
		for c := range b.live {
			clients = append(clients, c)
		}
		b.live = make(map[*rpc.Client]struct{})
		b.idle = nil
		b.mu.Unlock()
		for _, c := range clients {
			if err := c.Close(); err != nil && b.closeErr == nil && !errors.Is(err, rpc.ErrShutdown) {
				b.closeErr = err
			}
		}
		if b.listener != nil {
			if err := b.listener.Close(); err != nil && b.closeErr == nil {
				b.closeErr = err
			}
		}
		b.serving.Wait()
		if b.sockDir != "" {
			os.RemoveAll(b.sockDir)
		}
	})
	return b.closeErr
}
