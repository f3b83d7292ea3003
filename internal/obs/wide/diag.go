package wide

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"maras/internal/obs"
)

// DefaultDiagWindow is how far around the event's completion the diag
// view looks for correlated audit events and profile artifacts.
const DefaultDiagWindow = 2 * time.Minute

// DiagAuditEvent is a governance/audit record correlated into the
// incident window — a narrowed copy of audit.Event so the wide package
// does not import the audit package.
type DiagAuditEvent struct {
	Time     time.Time `json:"time"`
	Rule     string    `json:"rule"`
	Severity string    `json:"severity"`
	Scope    string    `json:"scope,omitempty"`
	Message  string    `json:"message"`
}

// ProfileRef points at a profile artifact captured inside the incident
// window, with its integrity check result.
type ProfileRef struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Cause    string    `json:"cause,omitempty"`
	TakenAt  time.Time `json:"taken_at"`
	Link     string    `json:"link"`
	Verified bool      `json:"verified"` // CRC check on the stored artifact passed
}

// SLOState is the burn-rate engine's current verdict plus any
// degraded-mode causes from the readiness probe.
type SLOState struct {
	Breached []string `json:"breached,omitempty"`
	Degraded []string `json:"degraded,omitempty"`
}

// Diag wires the cross-signal joins the incident view needs. Each
// adapter is optional — a nil func simply leaves that section out —
// so a server wires whatever subsystems it runs.
type Diag struct {
	Ring      *Ring
	FindTrace func(id string) (obs.TraceRecord, bool)
	Audit     func(from, to time.Time) []DiagAuditEvent
	SLO       func() SLOState
	Profiles  func(from, to time.Time) []ProfileRef
	Window    time.Duration // correlation window; 0 = DefaultDiagWindow
}

// DiagReport is the assembled incident view for one request ID.
type DiagReport struct {
	Event    Event            `json:"event"`
	HasEvent bool             `json:"has_event"`
	Trace    *obs.TraceRecord `json:"trace,omitempty"`
	Audit    []DiagAuditEvent `json:"audit,omitempty"`
	SLO      SLOState         `json:"slo"`
	Profiles []ProfileRef     `json:"profiles,omitempty"`
	Window   time.Duration    `json:"window_ns"`
}

// Report assembles the cross-signal join for one request ID: the wide
// event, its full span tree, audit events inside the surrounding
// window, current SLO breach state, and profile artifacts captured
// in-window. ok is false when neither the ring nor the journal knows
// the ID.
func (d Diag) Report(id string) (DiagReport, bool) {
	w := d.Window
	if w <= 0 {
		w = DefaultDiagWindow
	}
	rep := DiagReport{Window: w}
	rep.Event, rep.HasEvent = d.Ring.Find(id)
	if d.FindTrace != nil {
		// Prefer the event's own trace link (request IDs double as trace
		// IDs, but background events may link a different trace).
		tid := id
		if rep.HasEvent && rep.Event.Trace != "" {
			tid = rep.Event.Trace
		}
		if tr, ok := d.FindTrace(tid); ok {
			rep.Trace = &tr
		} else if tr, ok := d.FindTrace(id); ok {
			rep.Trace = &tr
		}
	}
	if !rep.HasEvent && rep.Trace == nil {
		return rep, false
	}
	// Center the correlation window on the completion time we know.
	at := rep.Event.Time
	if !rep.HasEvent && rep.Trace != nil {
		at = rep.Trace.Start.Add(rep.Trace.Duration())
	}
	from, to := at.Add(-w), at.Add(w)
	if d.Audit != nil {
		rep.Audit = d.Audit(from, to)
	}
	if d.SLO != nil {
		rep.SLO = d.SLO()
	}
	if d.Profiles != nil {
		rep.Profiles = d.Profiles(from, to)
	}
	return rep, true
}

// DiagHandler serves the incident view at prefix (normally
// "/debug/diag/"): GET {prefix}{request-id} renders the joined report,
// text by default, JSON with ?format=json. A missing ID is a usage
// error; an unknown ID is 404. A nil ring disables the endpoint.
func DiagHandler(d Diag, prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.Ring == nil {
			http.Error(w, "wide events disabled (-wide-events 0)", http.StatusNotFound)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, prefix)
		if id == "" || strings.Contains(id, "/") {
			http.Error(w, "usage: GET "+prefix+"{request-id}", http.StatusBadRequest)
			return
		}
		rep, ok := d.Report(id)
		if !ok {
			http.Error(w, "no wide event or trace for "+id, http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "diagnostic view: %s (correlation window ±%s)\n", id, rep.Window)
		fmt.Fprintf(w, "\n== wide event ==\n")
		if rep.HasEvent {
			writeEventText(w, rep.Event)
		} else {
			fmt.Fprintln(w, "(not in ring — sampled out or evicted)")
		}
		fmt.Fprintf(w, "\n== trace ==")
		if rep.Trace != nil {
			obs.WriteTraceText(w, *rep.Trace)
		} else {
			fmt.Fprintln(w, "\n(not in journal)")
		}
		fmt.Fprintf(w, "\n== audit events in window (%d) ==\n", len(rep.Audit))
		for _, a := range rep.Audit {
			fmt.Fprintf(w, "%s [%s] %s %s: %s\n",
				a.Time.Format(time.RFC3339), a.Severity, a.Rule, a.Scope, a.Message)
		}
		fmt.Fprintf(w, "\n== slo ==\n")
		if len(rep.SLO.Breached) == 0 && len(rep.SLO.Degraded) == 0 {
			fmt.Fprintln(w, "healthy")
		}
		for _, b := range rep.SLO.Breached {
			fmt.Fprintf(w, "breached: %s\n", b)
		}
		for _, c := range rep.SLO.Degraded {
			fmt.Fprintf(w, "degraded: %s\n", c)
		}
		fmt.Fprintf(w, "\n== profile artifacts in window (%d) ==\n", len(rep.Profiles))
		for _, p := range rep.Profiles {
			verified := "crc ok"
			if !p.Verified {
				verified = "CRC MISMATCH"
			}
			fmt.Fprintf(w, "%s %s cause=%s taken=%s %s -> %s\n",
				p.ID, p.Kind, p.Cause, p.TakenAt.Format(time.RFC3339), verified, p.Link)
		}
	})
}
