package store

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// S3Config configures an S3Store. Zero fields fall back to the AWS_*
// environment variables (AWS_ACCESS_KEY_ID, AWS_SECRET_ACCESS_KEY,
// AWS_REGION) and the public AWS endpoint for the region.
type S3Config struct {
	Bucket string
	// Prefix is prepended to every key, so one bucket can host several
	// independent stores.
	Prefix string
	// Endpoint targets an S3-compatible service (MinIO, the test fake,
	// …) as a base URL, e.g. "http://localhost:9000". Empty means
	// https://s3.<region>.amazonaws.com. Requests always use path-style
	// addressing (endpoint/bucket/key), which every compatible service
	// accepts.
	Endpoint  string
	Region    string
	AccessKey string
	SecretKey string
	// HTTPClient overrides the transport; nil uses a 30s-timeout default.
	HTTPClient *http.Client
	// Now is the signing clock, injectable for tests; nil means time.Now.
	Now func() time.Time
}

// S3Store speaks the minimal S3 REST surface — object GET and PUT — over
// plain HTTP with AWS Signature Version 4, so the repo stays free of SDK
// dependencies while the trial cache can live on any S3-compatible service
// and dedup across a whole worker fleet.
type S3Store struct {
	cfg      S3Config
	endpoint string
	http     *http.Client
	now      func() time.Time
}

// NewS3Store validates cfg and resolves its defaults.
func NewS3Store(cfg S3Config) (*S3Store, error) {
	if cfg.Bucket == "" {
		return nil, fmt.Errorf("store: s3 bucket is required")
	}
	if cfg.Region == "" {
		cfg.Region = os.Getenv("AWS_REGION")
		if cfg.Region == "" {
			cfg.Region = "us-east-1"
		}
	}
	if cfg.AccessKey == "" {
		cfg.AccessKey = os.Getenv("AWS_ACCESS_KEY_ID")
	}
	if cfg.SecretKey == "" {
		cfg.SecretKey = os.Getenv("AWS_SECRET_ACCESS_KEY")
	}
	endpoint := cfg.Endpoint
	if endpoint == "" {
		endpoint = "https://s3." + cfg.Region + ".amazonaws.com"
	}
	endpoint = strings.TrimRight(endpoint, "/")
	if cfg.Prefix != "" && !strings.HasSuffix(cfg.Prefix, "/") {
		cfg.Prefix += "/"
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &S3Store{cfg: cfg, endpoint: endpoint, http: hc, now: now}, nil
}

// object maps a key to its bucket-relative object path.
func (s *S3Store) object(key string) string {
	return s.cfg.Bucket + "/" + s.cfg.Prefix + key
}

// do signs and sends one object request, answering the response.
func (s *S3Store) do(ctx context.Context, method, objectPath string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.endpoint+"/"+objectPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	s.sign(req, body)
	return s.http.Do(req)
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 8<<10))
	resp.Body.Close()
}

// httpErr renders a non-2xx response as an error, with a bounded excerpt
// of the (usually XML) body for the operator.
func httpErr(op string, resp *http.Response) error {
	excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("store: s3 %s: HTTP %d: %s", op, resp.StatusCode, strings.TrimSpace(string(excerpt)))
}

// Get fetches an object, or ErrNotFound on 404.
func (s *S3Store) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := s.do(ctx, http.MethodGet, s.object(key), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 8<<10))
		return nil, ErrNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, httpErr("get", resp)
	}
	return io.ReadAll(resp.Body)
}

// Put uploads an object; S3 PUTs are atomic by contract.
func (s *S3Store) Put(ctx context.Context, key string, val []byte) error {
	resp, err := s.do(ctx, http.MethodPut, s.object(key), val)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusNoContent {
		return httpErr("put", resp)
	}
	return nil
}

// sign applies AWS Signature Version 4 with the s3 service name. The
// payload hash is always computed (never UNSIGNED-PAYLOAD), so a
// strict-verifying endpoint accepts writes.
func (s *S3Store) sign(req *http.Request, body []byte) {
	now := s.now().UTC()
	amzDate := now.Format("20060102T150405Z")
	dateStamp := now.Format("20060102")
	payload := sha256.Sum256(body)
	payloadHex := hex.EncodeToString(payload[:])

	req.Header.Set("Host", req.URL.Host)
	req.Header.Set("X-Amz-Date", amzDate)
	req.Header.Set("X-Amz-Content-Sha256", payloadHex)

	canonicalURI := uriEncodePath(req.URL.Path)
	canonicalHeaders := "host:" + req.URL.Host + "\n" +
		"x-amz-content-sha256:" + payloadHex + "\n" +
		"x-amz-date:" + amzDate + "\n"
	const signedHeaders = "host;x-amz-content-sha256;x-amz-date"
	canonicalRequest := strings.Join([]string{
		req.Method,
		canonicalURI,
		req.URL.RawQuery,
		canonicalHeaders,
		signedHeaders,
		payloadHex,
	}, "\n")

	scope := dateStamp + "/" + s.cfg.Region + "/s3/aws4_request"
	crHash := sha256.Sum256([]byte(canonicalRequest))
	stringToSign := strings.Join([]string{
		"AWS4-HMAC-SHA256",
		amzDate,
		scope,
		hex.EncodeToString(crHash[:]),
	}, "\n")

	kDate := hmacSHA256([]byte("AWS4"+s.cfg.SecretKey), dateStamp)
	kRegion := hmacSHA256(kDate, s.cfg.Region)
	kService := hmacSHA256(kRegion, "s3")
	kSigning := hmacSHA256(kService, "aws4_request")
	signature := hex.EncodeToString(hmacSHA256(kSigning, stringToSign))

	req.Header.Set("Authorization", fmt.Sprintf(
		"AWS4-HMAC-SHA256 Credential=%s/%s, SignedHeaders=%s, Signature=%s",
		s.cfg.AccessKey, scope, signedHeaders, signature))
}

func hmacSHA256(key []byte, msg string) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(msg))
	return h.Sum(nil)
}

// uriEncodePath canonicalizes a request path with the AWS flavor of
// RFC 3986 percent-encoding: unreserved characters and the '/' separators
// pass through, everything else (spaces included, never +) becomes %XX.
// The path arrives already decoded from url.Parse.
func uriEncodePath(path string) string {
	if path == "" {
		return "/"
	}
	var b strings.Builder
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~', c == '/':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}
