package ampc

import "errors"

// ErrClosed is the sentinel wrapped by every operation issued against a
// closed Session or Job — rounds, shuffles and job admission all fail with
// an error matching errors.Is(err, ErrClosed).
var ErrClosed = errors.New("runtime is closed")
