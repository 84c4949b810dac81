// The HTTP/SSE live-view gateway: the browser-facing edge of the read
// fan-out tier. Each SSE client gets one goroutine that polls the
// gateway's relay once per tick — hitting the relay-local lock-free
// fast path when nothing changed — and pushes at most one `update`
// frame per tick, so a burst of upstream publishes coalesces into a
// single event per client. Rendering reuses the aida SVG/XML/text
// renderers over the relay's local merged copy; no new protocol, no
// per-viewer load on the owning shard.
//
// Endpoint contract (all GET):
//
//	/events/{session}        SSE stream of JSON update frames:
//	                         event: update
//	                         data: {"session","version","epoch","resync",
//	                                "paths","removed","done","total","logs"}
//	                         A `resync` frame means the upstream state was
//	                         rebuilt (failover): discard and re-fetch views.
//	/live/{session}          HTML live view (EventSource + SVG refresh).
//	/view/{session}?path=P   SVG rendering of the object at P.
//	/tree/{session}          text object-browser summary.
//	/xml/{session}           full AIDA XML export.
package relay

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// Gateway serves live session views from a relay over HTTP/SSE.
type Gateway struct {
	relay *Relay
	// Tick is the per-client coalescing interval: each SSE client sees
	// at most one update frame per Tick (default 200ms).
	Tick time.Duration
	mux  *http.ServeMux
}

// NewGateway wraps a relay in the HTTP/SSE surface.
func NewGateway(r *Relay) *Gateway {
	g := &Gateway{relay: r, Tick: 200 * time.Millisecond}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /events/{session}", g.events)
	g.mux.HandleFunc("GET /live/{session}", g.live)
	g.mux.HandleFunc("GET /view/{session}", g.view)
	g.mux.HandleFunc("GET /tree/{session}", g.tree)
	g.mux.HandleFunc("GET /xml/{session}", g.xml)
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// sseFrame is one update event's JSON payload.
type sseFrame struct {
	Session string `json:"session"`
	Version int64  `json:"version"`
	Epoch   int64  `json:"epoch"`
	// Resync marks a post-failover rebuild: the version space restarted,
	// so viewers must discard cached state and treat Paths as complete.
	Resync  bool     `json:"resync,omitempty"`
	Paths   []string `json:"paths,omitempty"`
	Removed []string `json:"removed,omitempty"`
	Done    int64    `json:"done"`
	Total   int64    `json:"total"`
	Logs    []string `json:"logs,omitempty"`
}

func (g *Gateway) events(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("session")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	g.relay.AddClient()
	obsSSEClients.Add(1)
	defer func() {
		g.relay.DropClient()
		obsSSEClients.Add(-1)
	}()
	tick := g.Tick
	if tick <= 0 {
		tick = 200 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	enc := json.NewEncoder(w)
	var since, sinceEpoch int64
	push := func() bool {
		var reply merge.PollReply
		args := merge.PollArgs{SessionID: sid, SinceVersion: since}
		if err := g.relay.Poll(args, &reply); err != nil || reply.Version == 0 {
			return true // session unknown yet; keep waiting
		}
		resync := since > 0 && (reply.Version < since ||
			(reply.Epoch != 0 && sinceEpoch != 0 && reply.Epoch != sinceEpoch))
		if resync {
			// The relay re-baselined under us; restart from zero so the
			// next frame carries the complete rebuilt state.
			since, sinceEpoch = 0, 0
			reply = merge.PollReply{}
			if err := g.relay.Poll(merge.PollArgs{SessionID: sid}, &reply); err != nil || reply.Version == 0 {
				return true
			}
		}
		if !reply.Changed && reply.Version == since && !resync {
			return true
		}
		f := sseFrame{
			Session: sid, Version: reply.Version, Epoch: reply.Epoch,
			Resync: resync, Removed: reply.Removed, Logs: reply.Logs,
		}
		for _, e := range reply.Entries {
			f.Paths = append(f.Paths, e.Path)
		}
		for _, p := range reply.Progress {
			f.Done += p.EventsDone
			f.Total += p.EventsTotal
		}
		if _, err := fmt.Fprintf(w, "event: update\ndata: "); err != nil {
			return false
		}
		if err := enc.Encode(f); err != nil { // Encode appends one \n
			return false
		}
		if _, err := fmt.Fprintf(w, "\n"); err != nil {
			return false
		}
		fl.Flush()
		obsSSEFrames.Inc()
		if since > 0 && reply.Version > since+1 {
			// The versions between since and reply.Version were coalesced
			// into this one frame.
			obsSSECoalesced.Add(reply.Version - since - 1)
		}
		since, sinceEpoch = reply.Version, reply.Epoch
		return true
	}
	if !push() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
			if !push() {
				return
			}
		}
	}
}

func (g *Gateway) view(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("session")
	path := r.URL.Query().Get("path")
	tree, _, err := g.relay.Local().MergedTree(sid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	obj := tree.Get(path)
	if obj == nil {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", "no-cache")
	if h, ok := obj.(*aida.Histogram1D); ok {
		if err := aida.WriteSVGH1D(w, h, 640, 400); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	// Non-H1D objects get their text summary wrapped in an SVG so the
	// live page can treat every path as an image.
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="640" height="60">`+
		`<text x="8" y="24" font-family="monospace" font-size="13">%s  [%s]  entries=%d</text></svg>`,
		html.EscapeString(path), html.EscapeString(string(obj.Kind())), obj.EntriesCount())
}

func (g *Gateway) tree(w http.ResponseWriter, r *http.Request) {
	tree, ver, err := g.relay.Local().MergedTree(r.PathValue("session"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "version %d\n%s", ver, aida.RenderTree(tree))
}

func (g *Gateway) xml(w http.ResponseWriter, r *http.Request) {
	tree, _, err := g.relay.Local().MergedTree(r.PathValue("session"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := aida.WriteXML(w, tree); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (g *Gateway) live(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("session")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, livePage, html.EscapeString(sid))
}

// livePage is the zero-dependency live view: subscribe to the SSE
// stream, keep an <img> per object path, and re-fetch only the paths
// each update frame names.
const livePage = `<!DOCTYPE html>
<html><head><title>ipa live — %[1]s</title><style>
body{font-family:sans-serif;margin:1em;background:#fafafa}
img{border:1px solid #ccc;margin:4px;background:#fff}
#status{color:#555;font-size:90%%}
</style></head><body>
<h2>session %[1]s</h2><div id="status">connecting…</div><div id="plots"></div>
<script>
const sid=%[1]q, plots={}, status=document.getElementById('status');
const es=new EventSource('/events/'+encodeURIComponent(sid));
es.addEventListener('update',ev=>{
  const f=JSON.parse(ev.data);
  status.textContent='version '+f.version+' — '+f.done+'/'+f.total+' events';
  if(f.resync){for(const p in plots){plots[p].remove();delete plots[p];}}
  for(const p of f.removed||[]){if(plots[p]){plots[p].remove();delete plots[p];}}
  for(const p of f.paths||[]){
    let img=plots[p];
    if(!img){img=document.createElement('img');plots[p]=img;
      document.getElementById('plots').appendChild(img);}
    img.src='/view/'+encodeURIComponent(sid)+'?path='+encodeURIComponent(p)+'&v='+f.version;
  }
});
es.onerror=()=>{status.textContent='disconnected — retrying…';};
</script></body></html>
`
