// Package client is the typed Go client for the /v1 API. Everything
// that talks to a udiserver over HTTP goes through it — the networked
// coordinator's shard stubs, the replica's WAL follower, and `udi
// -remote` — so error-envelope decoding, deadlines, retry policy, and
// Retry-After handling live in exactly one place.
//
// Server-reported errors come back as *httpapi.StatusError, the same
// type the handlers render: a proxying layer (the coordinator) can hand
// the decoded error straight back to its own handler and the end client
// receives a byte-identical envelope. Transport-level failures (refused
// connections, timeouts, truncated bodies) come back as ordinary errors
// wrapping ErrTransport, so callers can distinguish "the server said
// no" from "the server never answered" — the distinction the
// coordinator's shard_unavailable mapping and the no-retry-on-mutation
// rule are built on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"udi/internal/httpapi"
)

// ErrTransport marks failures where no well-formed server response
// arrived: connection errors, request timeouts, truncated or undecodable
// bodies. A *httpapi.StatusError never wraps it.
var ErrTransport = errors.New("client: transport failure")

// Options configures a Client. The zero value uses a pooled transport,
// no per-request timeout beyond the caller's context, and 2 retries for
// idempotent requests.
type Options struct {
	// HTTPClient overrides the underlying client (tests, fault proxies).
	// Nil builds one with a pooled transport.
	HTTPClient *http.Client
	// Timeout bounds each attempt (not the whole retry loop). Zero means
	// only the caller's context bounds the request.
	Timeout time.Duration
	// Retries is the number of re-attempts after the first failure for
	// idempotent requests (negative = none, zero = DefaultRetries).
	// Non-idempotent requests are never retried: a lost response leaves
	// the outcome unknown, and re-sending could double-apply.
	Retries int
	// RetryBackoff is the base pause between attempts when the server
	// did not send Retry-After (default 50ms, doubled per attempt).
	RetryBackoff time.Duration
}

// DefaultRetries is the idempotent re-attempt budget when Options
// leaves Retries zero.
const DefaultRetries = 2

// Client is a typed /v1 API client bound to one base URL. It is safe
// for concurrent use; connections are pooled per Client.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// New builds a client for the server at base (e.g. "http://host:8080"),
// with or without a trailing slash.
func New(base string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	}
	if retries < 0 {
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      hc,
		timeout: opts.Timeout,
		retries: retries,
		backoff: backoff,
	}
}

// Base returns the server address this client is bound to.
func (c *Client) Base() string { return c.base }

// Do performs one JSON request against path (e.g. "/v1/query"). A
// non-nil in is sent as the JSON body; a non-nil out receives the
// decoded 2xx response. Idempotent requests are retried (bounded by
// Options.Retries) on transport failures and on 429/5xx responses,
// honoring Retry-After; non-idempotent requests get exactly one
// attempt. Error responses decode into *httpapi.StatusError.
func (c *Client) Do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	body, contentType, err := jsonBody(in)
	if err != nil {
		return err
	}
	return c.retry(ctx, idempotent, func() error {
		return c.attempt(ctx, method, path, contentType, body, jsonInto(out))
	})
}

// Get performs an idempotent GET.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.Do(ctx, http.MethodGet, path, nil, out, true)
}

// GetBinary performs an idempotent GET and returns the raw 2xx body with
// its response headers — the snapshot-bootstrap and WAL-tail paths, whose
// payloads are CRC-framed bytes rather than JSON.
func (c *Client) GetBinary(ctx context.Context, path string) ([]byte, http.Header, error) {
	var body []byte
	var header http.Header
	err := c.retry(ctx, true, func() error {
		return c.attempt(ctx, http.MethodGet, path, "", nil, func(data []byte, h http.Header) error {
			body, header = data, h
			return nil
		})
	})
	return body, header, err
}

// PostBinary performs an idempotent POST of in as JSON and hands the raw
// 2xx body to decode — the shard query leg, whose answer is a
// checksummed binary frame. A body decode refuses is a damaged response,
// so it is a transport failure like undecodable JSON, retried like one.
func (c *Client) PostBinary(ctx context.Context, path string, in any, decode func(body []byte) error) error {
	body, contentType, err := jsonBody(in)
	if err != nil {
		return err
	}
	return c.retry(ctx, true, func() error {
		return c.attempt(ctx, http.MethodPost, path, contentType, body,
			func(data []byte, _ http.Header) error { return decode(data) })
	})
}

// retry runs one wire attempt under the retry policy: once, plus
// Options.Retries re-attempts when the request is idempotent and the
// failure is retryable.
func (c *Client) retry(ctx context.Context, idempotent bool, attempt func() error) error {
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var last error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if err := c.pause(ctx, last, n); err != nil {
				return err
			}
		}
		err := attempt()
		if err == nil {
			return nil
		}
		last = err
		if !retryable(err) {
			return err
		}
	}
	return last
}

// jsonBody marshals a request body; nil sends none.
func jsonBody(in any) (body []byte, contentType string, err error) {
	if in == nil {
		return nil, "", nil
	}
	if body, err = json.Marshal(in); err != nil {
		return nil, "", fmt.Errorf("client: encode request: %w", err)
	}
	return body, "application/json", nil
}

// jsonInto is the sink that unmarshals a 2xx body into out; nil out
// discards the body.
func jsonInto(out any) func([]byte, http.Header) error {
	if out == nil {
		return nil
	}
	return func(data []byte, _ http.Header) error { return json.Unmarshal(data, out) }
}

// preallocBody is the largest declared Content-Length read into one
// exact-size buffer; anything larger, or undeclared, grows as it arrives.
const preallocBody = 4 << 20

func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= preallocBody {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(resp.Body)
}

// attempt is a single wire attempt shared by every entry point. A 2xx
// body goes to sink (nil discards it); a sink that refuses it is a
// transport failure.
func (c *Client) attempt(ctx context.Context, method, path, contentType string, body []byte, sink func(data []byte, h http.Header) error) error {
	// caller is the pre-timeout context: only its expiry is the caller's
	// own deadline. The per-attempt timeout expiring is a server fault
	// (a slow shard), reported as a retryable transport failure.
	caller := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// The caller's own context expiring is not a server fault; report
		// it as-is so handlers map it to timeout/canceled, not 503.
		if ctxErr := caller.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("%w: %s %s: %v", ErrTransport, method, path, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		if ctxErr := caller.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("%w: %s %s: read body: %v", ErrTransport, method, path, err)
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp, data)
	}
	if sink != nil {
		if err := sink(data, resp.Header); err != nil {
			return fmt.Errorf("%w: %s %s: decode response: %v", ErrTransport, method, path, err)
		}
	}
	return nil
}

// decodeError turns an error response into *httpapi.StatusError. A body
// that does not carry the envelope (a proxy's bare 502, a truncated
// write) still produces a StatusError with the HTTP status and code
// "internal" — the status line itself is trustworthy.
func decodeError(resp *http.Response, data []byte) error {
	var env struct {
		Error struct {
			Code    string         `json:"code"`
			Message string         `json:"message"`
			Details map[string]any `json:"details,omitempty"`
		} `json:"error"`
	}
	se := &httpapi.StatusError{Status: resp.StatusCode, Code: httpapi.CodeInternal}
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		se.Code = env.Error.Code
		se.Message = env.Error.Message
		se.Details = env.Error.Details
	} else {
		se.Message = http.StatusText(resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec > 0 {
			se.RetryAfterSec = sec
		}
	}
	return se
}

// retryable reports whether a failed idempotent attempt is worth
// re-sending: transport failures and 429/5xx server states, but never
// client errors (4xx other than 429) or context expiry.
func retryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrTransport) {
		return true
	}
	var se *httpapi.StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusTooManyRequests || se.Status >= 500
	}
	return false
}

// maxRetryPause caps the exponential backoff between attempts. Without
// a cap the doubling shift overflows time.Duration once attempt counts
// grow (a negative pause fires immediately, turning backoff into a hot
// retry loop).
const maxRetryPause = 30 * time.Second

// retryPause computes the wait before one retry: the server's
// Retry-After hint when the last failure carried one, else exponential
// backoff from the base, capped at maxRetryPause.
func (c *Client) retryPause(last error, attempt int) time.Duration {
	var se *httpapi.StatusError
	if errors.As(last, &se) && se.RetryAfterSec > 0 {
		return time.Duration(se.RetryAfterSec) * time.Second
	}
	d := c.backoff
	for i := 1; i < attempt && d < maxRetryPause; i++ {
		d <<= 1
	}
	if d <= 0 || d > maxRetryPause {
		return maxRetryPause
	}
	return d
}

// pause waits retryPause before a retry. The timer is stopped when the
// context wins the select, so an abandoned retry loop does not pin a
// timer until it fires.
func (c *Client) pause(ctx context.Context, last error, attempt int) error {
	t := time.NewTimer(c.retryPause(last, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
