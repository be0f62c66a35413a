package admin

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"jxta/internal/metrics"
)

// get fetches path from the server and returns status and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CounterFunc("jxta_test_total", "Test counter.", func() uint64 { return 7 })
	tr := metrics.NewTrace(8)
	tr.Record(3*time.Second, "lease-acquired", "rdv0")
	healthy := false
	locks := 0
	s, err := Serve("127.0.0.1:0", Options{
		Registry: func() *metrics.Registry { return reg },
		Trace:    tr,
		Locked:   func(fn func()) { locks++; fn() },
		Health: func() Health {
			return Health{Started: true, Role: "edge", Connected: healthy}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if code, body := get(t, s, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while disconnected: %d %q", code, body)
	}
	healthy = true
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || !strings.Contains(body, "role=edge") {
		t.Fatalf("/healthz while connected: %d %q", code, body)
	}

	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(body, "# TYPE jxta_test_total counter") ||
		!strings.Contains(body, "jxta_test_total 7") {
		t.Fatalf("/metrics body missing series:\n%s", body)
	}

	code, body = get(t, s, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: %d", code)
	}
	for _, want := range []string{`"jxta_test_total": 7`, `"lease-acquired"`, `"role": "edge"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/statusz missing %q:\n%s", want, body)
		}
	}

	if code, _ := get(t, s, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if locks == 0 {
		t.Fatal("handlers never took the serialization lock")
	}
}
