package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Hub fans the observability surfaces of many concurrent placement runs —
// one Observer per run — into a single HTTP handler, the multi-tenant
// counterpart of Observer.Handler:
//
//	/metrics         every registered observer's registry in one Prometheus
//	                 exposition, each series labeled job="<name>"
//	/status          JSON map of every observer's live Status by name
//	/<name>/...      the named observer's own full surface (metrics, status,
//	                 report, pprof), exactly as Observer.Handler serves it
//
// Register/Unregister are safe concurrently with serving; a scrape sees a
// consistent snapshot of the membership at its start. Observer names become
// label values and path segments, so keep them to URL- and
// Prometheus-friendly characters (the job-server uses job IDs).
type Hub struct {
	mu      sync.Mutex
	entries map[string]*hubEntry
}

type hubEntry struct {
	o       *Observer
	handler http.Handler
}

// NewHub returns an empty observer hub.
func NewHub() *Hub { return &Hub{entries: map[string]*hubEntry{}} }

// Register adds (or replaces) the named observer. Nil observers are ignored.
func (h *Hub) Register(name string, o *Observer) {
	if h == nil || o == nil {
		return
	}
	h.mu.Lock()
	h.entries[name] = &hubEntry{o: o, handler: o.Handler()}
	h.mu.Unlock()
}

// Unregister removes the named observer; unknown names are a no-op.
func (h *Hub) Unregister(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	delete(h.entries, name)
	h.mu.Unlock()
}

// Get returns the named observer, or nil.
func (h *Hub) Get(name string) *Observer {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[name]; ok {
		return e.o
	}
	return nil
}

// Names returns the registered observer names, sorted.
func (h *Hub) Names() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.entries))
	for n := range h.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Statuses snapshots every registered observer's live Status by name (the
// per-run spans_dropped field makes truncated traces visible here).
func (h *Hub) Statuses() map[string]Status {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	entries := make(map[string]*hubEntry, len(h.entries))
	for n, e := range h.entries {
		entries[n] = e
	}
	h.mu.Unlock()
	out := make(map[string]Status, len(entries))
	for n, e := range entries {
		out[n] = e.o.Status()
	}
	return out
}

// Sources returns every registered observer's registry labeled with the
// observer's name, sorted by name: the hub's part of a Prometheus
// exposition (see WritePrometheus).
func (h *Hub) Sources() []Source {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Source, 0, len(h.entries))
	for n, e := range h.entries {
		out = append(out, Source{Reg: e.o.Metrics(), Job: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Handler returns the hub's HTTP handler (see the type comment for routes).
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, h.Sources()...) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h.Statuses()) //nolint:errcheck // best-effort over HTTP
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		name, rest, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		h.mu.Lock()
		e := h.entries[name]
		h.mu.Unlock()
		if e == nil {
			http.NotFound(w, r)
			return
		}
		http.StripPrefix("/"+name, e.handler).ServeHTTP(w, r)
		_ = rest
	})
	return mux
}
