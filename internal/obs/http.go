package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability HTTP handler for this observer:
//
//	/              tiny index page linking the endpoints below
//	/metrics       Prometheus text exposition of the metrics registry
//	/status        live JSON status of the in-flight run
//	/report        full JSON run report (works mid-run too)
//	/debug/pprof/  the standard pprof index, profile, heap, trace, ...
//	/debug/vars    expvar JSON (includes the "complx" metric snapshot)
//
// The handlers are mounted on a private mux, so importing obs never touches
// http.DefaultServeMux. Safe to serve while a placement is running; all
// reads snapshot under the observer's lock.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><head><title>complx observability</title></head><body>
<h1>complx observability</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus text format</li>
<li><a href="/status">/status</a> — live run status (JSON)</li>
<li><a href="/report">/report</a> — full run report (JSON)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiling</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar JSON</li>
</ul></body></html>`)
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, Source{Reg: o.Metrics()})
	})

	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Status())
	})

	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		o.Report().WriteJSON(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	o.PublishExpvar()
	mux.Handle("/debug/vars", expvar.Handler())

	return mux
}
