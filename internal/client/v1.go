package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"udi/internal/core"
	"udi/internal/httpapi"
)

// The typed /v1 surface. Request and response shapes mirror the wire
// format the handlers in internal/httpapi serve; the schema response with
// its status objects (durability, replication, routing) and the source
// payload are the server's own types, so the two sides cannot drift.

// Health is the GET /v1/healthz response.
type Health struct {
	Status  string `json:"status"`
	Sources int    `json:"sources"`
	Epoch   uint64 `json:"epoch"`
}

// Schema is the GET /v1/schema response.
type Schema = httpapi.SchemaResponse

// SchemaEntry is one mediated schema with its probability.
type SchemaEntry = httpapi.SchemaJSON

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Query     string `json:"query"`
	Approach  string `json:"approach,omitempty"`
	Semantics string `json:"semantics,omitempty"`
	Top       int    `json:"top,omitempty"`
}

// QueryAnswer is one ranked answer.
type QueryAnswer struct {
	Values []string `json:"values"`
	Prob   float64  `json:"prob"`
}

// QueryResponse is the POST /v1/query response.
type QueryResponse struct {
	Answers     []QueryAnswer `json:"answers"`
	Distinct    int           `json:"distinct"`
	Occurrences int           `json:"occurrences"`
	Epoch       uint64        `json:"epoch"`
}

// Contribution is one source's provenance entry in an explain response.
type Contribution struct {
	Source    string         `json:"source"`
	SchemaIdx int            `json:"schema"`
	MedToSrc  map[int]string `json:"mapping"`
	Rows      []int          `json:"rows"`
	Mass      float64        `json:"mass"`
}

// ExplainResponse is the POST /v1/explain response.
type ExplainResponse struct {
	Contributions []Contribution `json:"contributions"`
	Epoch         uint64         `json:"epoch"`
}

// Candidate is one feedback candidate as served by GET /v1/candidates.
type Candidate struct {
	Source      string   `json:"source"`
	SrcAttr     string   `json:"attr"`
	Cluster     []string `json:"cluster"`
	MedName     string   `json:"med_name"`
	Marginal    float64  `json:"marginal"`
	Uncertainty float64  `json:"uncertainty"`
}

// CandidatesResponse is the GET /v1/candidates response.
type CandidatesResponse struct {
	Candidates []Candidate `json:"candidates"`
	Epoch      uint64      `json:"epoch"`
}

// FeedbackRequest is the POST /v1/feedback body.
type FeedbackRequest struct {
	Source    string `json:"source"`
	SrcAttr   string `json:"attr"`
	MedName   string `json:"med_name"`
	Confirmed bool   `json:"confirmed"`
}

// FeedbackResponse is the POST /v1/feedback response.
type FeedbackResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
}

// SourcePayload is one source in a POST /v1/sources batch.
type SourcePayload = core.SourceData

// AddSourcesResponse is the POST /v1/sources response.
type AddSourcesResponse struct {
	Status  string `json:"status"`
	Sources int    `json:"sources"`
	Fast    bool   `json:"fast"`
	Epoch   uint64 `json:"epoch"`
}

// RemoveSourceResponse is the DELETE /v1/sources/{name} response.
type RemoveSourceResponse struct {
	Status string `json:"status"`
	Source string `json:"source"`
	Fast   bool   `json:"fast"`
	Epoch  uint64 `json:"epoch"`
}

// Healthz fetches the server's health summary.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.Get(ctx, "/v1/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Schema fetches the mediated schema, epochs, and topology status.
func (c *Client) Schema(ctx context.Context) (*Schema, error) {
	var out Schema
	if err := c.Get(ctx, "/v1/schema", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query answers a query. The POST is an idempotent read — it is retried
// on transport failure.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/query", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain fetches the provenance behind one answer (idempotent read).
func (c *Client) Explain(ctx context.Context, query string, values []string) (*ExplainResponse, error) {
	var out ExplainResponse
	body := map[string]any{"query": query, "values": values}
	if err := c.Do(ctx, http.MethodPost, "/v1/explain", body, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Candidates fetches the top feedback candidates (idempotent read).
func (c *Client) Candidates(ctx context.Context, limit int) (*CandidatesResponse, error) {
	var out CandidatesResponse
	path := "/v1/candidates"
	if limit > 0 {
		path = fmt.Sprintf("/v1/candidates?limit=%d", limit)
	}
	if err := c.Get(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback submits one confirm/reject decision. Mutations are never
// retried: a lost response leaves the outcome unknown, and feedback is
// not idempotent.
func (c *Client) Feedback(ctx context.Context, req FeedbackRequest) (*FeedbackResponse, error) {
	var out FeedbackResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/feedback", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// AddSources submits a batch of sources for one group commit (never
// retried).
func (c *Client) AddSources(ctx context.Context, sources []SourcePayload) (*AddSourcesResponse, error) {
	var out AddSourcesResponse
	body := map[string]any{"sources": sources}
	if err := c.Do(ctx, http.MethodPost, "/v1/sources", body, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// RemoveSource drops one source by name (never retried).
func (c *Client) RemoveSource(ctx context.Context, name string) (*RemoveSourceResponse, error) {
	var out RemoveSourceResponse
	path := "/v1/sources/" + url.PathEscape(name)
	if err := c.Do(ctx, http.MethodDelete, path, nil, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}
