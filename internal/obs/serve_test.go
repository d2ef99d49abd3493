package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestServeEndpoints(t *testing.T) {
	m := New()
	m.DES.EventsFired.Add(11)
	srv, err := Serve(":0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want prometheus 0.0.4", ct)
	}
	if !strings.Contains(body, "bgpchurn_des_events_fired_total 11") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, _ = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["bgpchurn"]; !ok {
		t.Errorf("/debug/vars missing bgpchurn var; keys: %d", len(vars))
	}
	var snap map[string]float64
	if err := json.Unmarshal(vars["bgpchurn"], &snap); err != nil {
		t.Fatalf("bgpchurn var is not a snapshot map: %v", err)
	}
	if snap["bgpchurn_des_events_fired_total"] != 11 {
		t.Errorf("expvar snapshot counter = %v, want 11", snap["bgpchurn_des_events_fired_total"])
	}

	code, body, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles listing")
	}
}

func TestServeSecondHubReplacesExpvar(t *testing.T) {
	// expvar registration is process-global; a second server must not panic
	// and /debug/vars must reflect the newest hub.
	m1 := New()
	s1, err := Serve(":0", m1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	m2 := New()
	m2.BGP.WithdrawalsSent.Add(3)
	s2, err := Serve(":0", m2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	_, body, _ := get(t, "http://"+s2.Addr()+"/debug/vars")
	if !strings.Contains(body, `"bgpchurn_bgp_withdrawals_sent_total":3`) &&
		!strings.Contains(body, `"bgpchurn_bgp_withdrawals_sent_total": 3`) {
		t.Errorf("/debug/vars does not reflect newest hub:\n%s", body)
	}
}
