package dht

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The rpc backend's wire format and its server side: encoding and decoding
// the frames rpc.go describes, and the loop one server goroutine runs per
// connection.  Nothing here touches a socket, so the fuzz target drives it
// on bytes.

// Request ops, and reply statuses.
const (
	rpcRead = iota + 1
	rpcWrite
	rpcDelete
)

var rpcOpNames = [...]string{rpcRead: "read", rpcWrite: "write", rpcDelete: "delete"}

const (
	rpcOK byte = iota
	rpcUnavailable
	rpcError
)

const (
	// rpcMaxFrame bounds a frame body, far past any batch written here.
	rpcMaxFrame = 1 << 30
	// rpcReadStep bounds how far a frame read allocates ahead of the bytes
	// that have arrived, so a length prefix alone cannot make it allocate.
	rpcReadStep = 1 << 16
)

var errBadFrame = errors.New("dht: malformed or oversized rpc frame")

// rpcRequest is one request frame: a read's or a delete's keys, or a
// write's pairs, on one shard.
type rpcRequest struct {
	op    uint64
	shard int
	keys  []uint64
	pairs []Pair
}

// appendFrame appends the frame of req to b.
func appendFrame(b []byte, req *rpcRequest) ([]byte, error) {
	b = binary.AppendUvarint(append(b, 0, 0, 0, 0), req.op)
	b = binary.AppendUvarint(b, uint64(req.shard))
	b = binary.AppendUvarint(b, uint64(len(req.keys)+len(req.pairs)))
	for _, k := range req.keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	for _, p := range req.pairs {
		b = binary.LittleEndian.AppendUint64(b, p.Key)
		b = append(binary.AppendUvarint(b, uint64(len(p.Value))), p.Value...)
	}
	return endFrame(b)
}

// endFrame writes the length prefix of the frame b holds.
func endFrame(b []byte) ([]byte, error) {
	if len(b)-4 > rpcMaxFrame {
		return b, errBadFrame
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// readFrame reads one frame from r into buf's storage and returns its body.
// The body grows with the bytes that arrive, by at most the larger of
// rpcReadStep and what has arrived, so a frame up to rpcReadStep read into
// a nil buf costs one exactly sized allocation.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > rpcMaxFrame {
		return buf, errBadFrame
	}
	r.Discard(4)
	for buf = buf[:0]; len(buf) < n; {
		step := min(n-len(buf), max(len(buf), rpcReadStep))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		if buf = buf[:len(buf)+m]; err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frameReader reads the fields of a frame body.  The first field that runs
// past the body sets bad, and every later read returns zero.
type frameReader struct {
	b   []byte
	bad bool
}

// bytes returns the next n bytes, capacity-clipped.
func (r *frameReader) bytes(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *frameReader) uint64() uint64 {
	if v := r.bytes(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// done reports whether the body parsed with nothing left over.
func (r *frameReader) done() bool { return !r.bad && len(r.b) == 0 }

// parseRequest decodes a request body into req, reusing its slices; a
// write's values alias body.
func parseRequest(body []byte, req *rpcRequest) error {
	r := frameReader{b: body}
	op, shard, n := r.uvarint(), r.uvarint(), r.uvarint()
	// Every key takes 8 bytes, so a larger count is refused before
	// anything is sized by it.
	if r.bad || op < rpcRead || op > rpcDelete || shard > math.MaxInt32 || n > uint64(len(r.b)/8) {
		return errBadFrame
	}
	*req = rpcRequest{op: op, shard: int(shard), keys: req.keys[:0], pairs: req.pairs[:0]}
	if op == rpcWrite {
		req.pairs = slices.Grow(req.pairs, int(n))
		for range n {
			k := r.uint64()
			req.pairs = append(req.pairs, Pair{Key: k, Value: r.bytes(r.uvarint())})
		}
	} else {
		req.keys = slices.Grow(req.keys, int(n))
		for range n {
			req.keys = append(req.keys, r.uint64())
		}
	}
	if !r.done() {
		return errBadFrame
	}
	return nil
}

// appendReply appends the body of a reply to b: the status of err, and for
// an ok read the failover count and the values.
func appendReply(b []byte, err error, failovers int, vals [][]byte, oks []bool) []byte {
	switch {
	case errors.Is(err, ErrUnavailable):
		return append(b, rpcUnavailable)
	case err != nil:
		return append(append(b, rpcError), err.Error()...)
	case vals == nil:
		return append(b, rpcOK)
	}
	b = binary.AppendUvarint(append(b, rpcOK), uint64(failovers))
	for i, v := range vals {
		if b = append(b, 0); oks[i] {
			b[len(b)-1] = 1
			b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
		}
	}
	return b
}

// decodeReply decodes a reply body: its status, and for a read (vals
// non-nil) the failover count and the values into vals and oks, one entry
// per requested key.  The values alias body.
func decodeReply(body []byte, vals [][]byte, oks []bool) (failovers int, err error) {
	if len(body) == 0 {
		return 0, errBadFrame
	}
	switch body[0] {
	case rpcUnavailable:
		if len(body) == 1 {
			return 0, ErrUnavailable
		}
	case rpcError:
		return 0, fmt.Errorf("dht: rpc server: %s", body[1:])
	case rpcOK:
		r := frameReader{b: body[1:]}
		var f uint64
		if vals != nil {
			f = r.uvarint()
		}
		for i := range vals {
			switch r.uvarint() {
			case 0:
				vals[i], oks[i] = nil, false
			case 1:
				vals[i], oks[i] = r.bytes(r.uvarint()), true
			default:
				r.bad = true
			}
		}
		if r.done() && f <= uint64(len(vals)) {
			return int(f), nil
		}
	}
	return 0, errBadFrame
}

// serveFrames answers the request frames read from r on w until r ends or
// fails, a frame is too long (answered with an error: the stream cannot be
// resynchronized), or w fails.
func serveFrames(engine *memBackend, r io.Reader, w io.Writer) {
	br := bufio.NewReader(r)
	var body, reply []byte
	var req rpcRequest
	for {
		var err, ferr error
		if body, err = readFrame(br, body); err != nil && err != errBadFrame {
			return
		}
		reply, ferr = endFrame(handleFrame(engine, body, err, &req, append(reply[:0], 0, 0, 0, 0)))
		if ferr != nil { // a read reply past the bound
			reply, _ = endFrame(appendReply(reply[:4], ferr, 0, nil, nil))
		}
		if _, werr := w.Write(reply); werr != nil || err != nil {
			return
		}
	}
}

// handleFrame serves one request body, or the error reading it, and appends
// the reply body to b.
func handleFrame(engine *memBackend, body []byte, err error, req *rpcRequest, b []byte) []byte {
	if err == nil {
		err = parseRequest(body, req)
	}
	if err == nil && req.shard >= len(engine.shards) {
		err = fmt.Errorf("dht: shard %d of %d", req.shard, len(engine.shards))
	}
	switch {
	case err != nil:
		return appendReply(b, err, 0, nil, nil)
	case req.op == rpcWrite:
		return appendReply(b, engine.BatchWrite(req.shard, req.pairs), 0, nil, nil)
	case req.op == rpcDelete:
		return appendReply(b, engine.BatchDelete(req.shard, req.keys), 0, nil, nil)
	case len(req.keys) == 1: // a Get: the engine's single read allocates nothing
		v, ok, failover, err := engine.Get(req.shard, req.keys[0])
		return appendReply(b, err, boolInt(failover), [][]byte{v}, []bool{ok})
	}
	vals, oks, failovers, err := engine.BatchGet(req.shard, req.keys)
	return appendReply(b, err, failovers, vals, oks)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
