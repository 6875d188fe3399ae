package store_test

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strings"
	"sync"
)

// fakeS3 is a minimal in-memory S3-compatible service for tests: object
// GET and PUT, path-style addressing only. Every request must carry a
// valid AWS Signature Version 4 for the fake's credentials (access key AK,
// secret SK, region test-1) over the exact bytes sent, so the client's
// signing path is checked on every call.
type fakeS3 struct {
	mu      sync.Mutex
	objects map[string][]byte // full path "bucket/key" -> value
}

func newFakeS3() *fakeS3 {
	return &fakeS3{objects: make(map[string][]byte)}
}

func (f *fakeS3) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read", http.StatusBadRequest)
		return
	}
	if !validSigV4(r, body) {
		http.Error(w, "<Error><Code>SignatureDoesNotMatch</Code></Error>", http.StatusForbidden)
		return
	}
	path := strings.TrimPrefix(r.URL.Path, "/")
	f.mu.Lock()
	defer f.mu.Unlock()
	switch r.Method {
	case http.MethodPut:
		f.objects[path] = body
		w.WriteHeader(http.StatusOK)
	case http.MethodGet:
		v, ok := f.objects[path]
		if !ok {
			http.Error(w, "<Error><Code>NoSuchKey</Code></Error>", http.StatusNotFound)
			return
		}
		w.Write(v)
	default:
		http.Error(w, "method", http.StatusMethodNotAllowed)
	}
}

// validSigV4 recomputes the request's SigV4 signature from what arrived on
// the wire: the payload hash must match the body, and the signature must
// match the canonical request over method, path, query and the three
// signed headers.
func validSigV4(r *http.Request, body []byte) bool {
	const secret, region = "SK", "test-1"
	payload := sha256.Sum256(body)
	payloadHex := hex.EncodeToString(payload[:])
	amzDate := r.Header.Get("X-Amz-Date")
	if r.Header.Get("X-Amz-Content-Sha256") != payloadHex || len(amzDate) != len("20060102T150405Z") {
		return false
	}
	canonical := strings.Join([]string{
		r.Method,
		r.URL.EscapedPath(),
		r.URL.RawQuery,
		"host:" + r.Host + "\nx-amz-content-sha256:" + payloadHex + "\nx-amz-date:" + amzDate + "\n",
		"host;x-amz-content-sha256;x-amz-date",
		payloadHex,
	}, "\n")
	scope := amzDate[:8] + "/" + region + "/s3/aws4_request"
	crHash := sha256.Sum256([]byte(canonical))
	key := []byte("AWS4" + secret)
	for _, part := range []string{amzDate[:8], region, "s3", "aws4_request"} {
		key = hmacSum(key, part)
	}
	sig := hex.EncodeToString(hmacSum(key, "AWS4-HMAC-SHA256\n"+amzDate+"\n"+scope+"\n"+hex.EncodeToString(crHash[:])))
	want := "AWS4-HMAC-SHA256 Credential=AK/" + scope +
		", SignedHeaders=host;x-amz-content-sha256;x-amz-date, Signature=" + sig
	return r.Header.Get("Authorization") == want
}

func hmacSum(key []byte, msg string) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(msg))
	return h.Sum(nil)
}
