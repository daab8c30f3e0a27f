package dht

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sameRequest reports whether two requests carry the same op, shard, keys
// and pairs.
func sameRequest(a, b *rpcRequest) bool {
	return a.op == b.op && a.shard == b.shard && slices.Equal(a.keys, b.keys) &&
		slices.EqualFunc(a.pairs, b.pairs, func(p, q Pair) bool { return p.Key == q.Key && bytes.Equal(p.Value, q.Value) })
}

// FuzzRPCFrame feeds arbitrary bytes to both ends of the rpc wire format:
// as a connection's input stream to the server loop (over a small mem
// engine), as a frame to the frame reader, and as a reply body to the
// client's decoder.  None may panic; every reply the server writes is a
// well-formed frame; a frame read allocates no further ahead of the bytes
// that arrived than the read step; and whatever request or reply the bytes
// decode to encodes to bytes that decode to the same request or reply.
func FuzzRPCFrame(f *testing.F) {
	for _, req := range []rpcRequest{
		{op: rpcRead, shard: 1, keys: []uint64{7}},
		{op: rpcRead, shard: 0, keys: []uint64{0, 1<<64 - 1, 3}},
		{op: rpcWrite, shard: 1, pairs: []Pair{{Key: 7, Value: []byte("seven")}, {Key: 9}}},
		{op: rpcWrite + 1, shard: 0, keys: []uint64{7, 8}}, // the retired delete op: a bad frame
		{op: rpcRead, shard: 5, keys: []uint64{1}},         // no such shard
	} {
		frame, err := appendFrame(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[4:])
	}
	f.Add(appendReply(nil, nil, [][]byte{[]byte("ab"), nil, {}}, []bool{true, false, true}))
	f.Add(appendReply(nil, nil, nil, nil)) // a write's ok
	f.Add(appendReply(nil, errors.New("boom"), nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})       // past the frame bound
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, 1, 0, 1}) // at the bound, body missing
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		serveFrames(newMemBackend(2), bytes.NewReader(data), &out)
		replies := bufio.NewReader(&out)
		for {
			body, err := readFrame(replies, nil)
			if err == io.EOF {
				break
			}
			if err != nil || len(body) == 0 || body[0] > rpcError {
				t.Fatalf("server wrote a malformed reply %q: %v", body, err)
			}
		}

		body, _ := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if cap(body) > 2*len(data)+rpcReadStep {
			t.Fatalf("reading %d bytes allocated %d", len(data), cap(body))
		}

		var req rpcRequest
		if parseRequest(data, &req) == nil {
			frame, err := appendFrame(nil, &req)
			var again rpcRequest
			if err != nil || parseRequest(frame[4:], &again) != nil || !sameRequest(&req, &again) {
				t.Fatalf("request %+v did not survive a round trip (%v)", req, err)
			}
		}

		decodeReply(data, nil, nil)
		for n := 0; n <= 3; n++ {
			vals, oks := make([][]byte, n), make([]bool, n)
			if decodeReply(data, vals, oks) != nil {
				continue
			}
			for _, v := range vals {
				if cap(v) != len(v) {
					t.Fatalf("value of %d bytes has capacity %d", len(v), cap(v))
				}
			}
			vals2, oks2 := make([][]byte, n), make([]bool, n)
			err := decodeReply(appendReply(nil, nil, vals, oks), vals2, oks2)
			if err != nil || !slices.Equal(oks, oks2) || !slices.EqualFunc(vals, vals2, bytes.Equal) {
				t.Fatalf("reply of %d keys did not survive a round trip (%v)", n, err)
			}
		}
	})
}

// TestRPCFrameBound: a length prefix past the bound is refused before
// anything is read or allocated, and the server answers it with an error
// and hangs up; a prefix at the bound whose body never arrives costs one
// read step, not the gigabyte it claims.
func TestRPCFrameBound(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, rpcMaxFrame+1)
	if body, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), nil); err != errBadFrame || cap(body) != 0 {
		t.Fatalf("oversized frame: %v, %d bytes allocated", err, cap(body))
	}
	var out bytes.Buffer
	serveFrames(newMemBackend(1), bytes.NewReader(append(hdr, 1, 2, 3)), &out)
	reply, err := readFrame(bufio.NewReader(&out), nil)
	if err != nil || len(reply) == 0 || reply[0] != rpcError || !strings.Contains(string(reply), "oversized") {
		t.Fatalf("server answered an oversized frame with %q (%v)", reply, err)
	}

	short := append(binary.LittleEndian.AppendUint32(nil, rpcMaxFrame), make([]byte, 10)...)
	body, err := readFrame(bufio.NewReader(bytes.NewReader(short)), nil)
	if err != io.ErrUnexpectedEOF || cap(body) > rpcReadStep {
		t.Fatalf("truncated frame: %v, %d bytes allocated", err, cap(body))
	}
}

// TestRPCConnectionsBoundedByConcurrency: every healthy connection goes back
// to the idle list, so eight concurrent callers dial at most eight
// connections however many calls they make — also when they run in rounds,
// as a job's workers do, and all hand their connections back at once.
func TestRPCConnectionsBoundedByConcurrency(t *testing.T) {
	b, err := newRPCBackend(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for k := uint64(0); k < 64; k++ {
		if err := b.Put(int(k%4), k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	const callers, rounds, gets = 8, 20, 10
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < gets; i++ {
					k := uint64(r*gets*callers+g*gets+i) % 64
					if v, ok, err := b.Get(int(k%4), k); err != nil || !ok || v[0] != byte(k) {
						t.Errorf("Get(%d) = %v %v %v", k, v, ok, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.mu.Lock()
	dials := b.dials
	b.mu.Unlock()
	if dials > callers {
		t.Fatalf("%d callers dialed %d connections", callers, dials)
	}
}
