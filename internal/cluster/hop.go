// Replica-to-replica hops (DESIGN.md §14): the timeout and the bounded
// reply reader that the coordinator's cell fetches and cxlserve's proxy hop
// share.

package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"slices"
	"time"
)

// HopTimeout bounds one request from a replica or a coordinator to another
// replica: a coordinator's cell fetch and cxlserve's proxy hop. Full-fidelity
// cells are slow on a cold replica.
const HopTimeout = 5 * time.Minute

// MaxReply bounds the reply a hop reads. The largest response a replica
// renders, a tpp-timeline spec at its epoch cap as JSON, is a few MiB; a
// longer reply counts as a failed hop.
const MaxReply = 64 << 20

// ErrReplyTooLarge reports a replica's reply past the size bound.
var ErrReplyTooLarge = errors.New("cluster: replica reply exceeds the size bound")

// ReadReply appends resp's whole body to dst. It fails if the body is
// longer than limit bytes, if reading it fails (a timeout, a connection
// closed mid-body), or if it is shorter than its declared Content-Length.
// A declared length sizes dst up front (plus the spare bytes.Buffer needs
// to see EOF), so a reply costs at most one allocation.
func ReadReply(dst []byte, resp *http.Response, limit int) ([]byte, error) {
	if resp.ContentLength > int64(limit) {
		return dst, ErrReplyTooLarge
	}
	if resp.ContentLength > 0 {
		dst = slices.Grow(dst, int(resp.ContentLength)+bytes.MinRead)
	}
	buf := bytes.NewBuffer(dst)
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, int64(limit)+1))
	body := buf.Bytes()
	switch {
	case err != nil:
		return body, err
	case n > int64(limit):
		return body, ErrReplyTooLarge
	case resp.ContentLength >= 0 && n != resp.ContentLength:
		return body, io.ErrUnexpectedEOF
	}
	return body, nil
}
