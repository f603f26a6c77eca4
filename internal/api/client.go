package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Client talks to a choreo placement service. The zero HTTPClient means
// http.DefaultClient; Tenant, when set, is sent as the X-Choreo-Tenant
// header and keys the server's per-tenant quota bucket.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7180".
	BaseURL    string
	HTTPClient *http.Client
	Tenant     string
}

// QuotaError is returned when the server rejected a request with HTTP
// 429 — the caller exceeded its tenant's token bucket. It is a distinct
// type so load generators can count rejections without string-matching.
type QuotaError struct{ Message string }

func (e *QuotaError) Error() string { return e.Message }

// StatusError is returned for every other non-200 response, carrying
// the HTTP status code so callers can distinguish client mistakes (4xx)
// from server faults (5xx) — `choreo load` fails its run on any 5xx.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string { return e.Message }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do performs one API exchange: marshal body (nil for GET), check the
// HTTP status, decode into out, and run the client-side version
// handshake on the "v" field every response carries.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Choreo-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr ErrorResponse
		msg := fmt.Sprintf("api: %s %s: %s", method, path, resp.Status)
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = fmt.Sprintf("api: %s %s: %s: %s", method, path, resp.Status, apiErr.Error)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return &QuotaError{Message: msg}
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("api: %s %s: decode response: %w", method, path, err)
	}
	// Every response type embeds the version as a "v" field; fish it
	// back out of the raw bytes so the handshake does not depend on the
	// concrete out type.
	var versioned struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &versioned); err == nil {
		if err := CheckServerVersion(versioned.V); err != nil {
			return err
		}
	}
	return nil
}

// Place requests a placement. The request's V is set for the caller.
func (c *Client) Place(ctx context.Context, req PlaceRequest) (*PlaceResponse, error) {
	req.V = Version
	var out PlaceResponse
	if err := c.do(ctx, http.MethodPost, "/v1/place", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Migrate asks whether an existing placement should move under the
// current snapshot.
func (c *Client) Migrate(ctx context.Context, req MigrateRequest) (*MigrateResponse, error) {
	req.V = Version
	var out MigrateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/migrate", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the service health summary.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Env fetches the current mesh snapshot with epoch and staleness.
func (c *Client) Env(ctx context.Context) (*EnvResponse, error) {
	var out EnvResponse
	if err := c.do(ctx, http.MethodGet, "/v1/env", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
