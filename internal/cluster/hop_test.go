package cluster

import (
	"io"
	"net/http"
	"testing"
)

// TestReadReplyBounds: a reply past the size bound, or shorter than its
// Content-Length, is a failed read; one at the bound is whole.
func TestReadReplyBounds(t *testing.T) {
	const limit = 1000
	reply := func(n, declared int64) *http.Response {
		return &http.Response{Body: io.NopCloser(io.LimitReader(zeroReader{}, n)), ContentLength: declared}
	}
	for _, c := range []struct {
		n, declared int64
		want        error
	}{
		{limit, -1, nil},
		{limit, limit, nil},
		{limit + 1, -1, ErrReplyTooLarge},
		{10 * limit, 10 * limit, ErrReplyTooLarge},
		{limit - 1, limit, io.ErrUnexpectedEOF},
	} {
		body, err := ReadReply([]byte("kept"), reply(c.n, c.declared), limit)
		if err != c.want || string(body[:4]) != "kept" {
			t.Fatalf("%d bytes declared as %d: error %v, want %v", c.n, c.declared, err, c.want)
		}
	}
}

// zeroReader reads zeros forever.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
