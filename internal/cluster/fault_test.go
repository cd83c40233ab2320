package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func faultTarget(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(srv.Close)
	u, _ := url.Parse(srv.URL)
	return srv, u.Host
}

func TestFaultInjectorPassthroughWithoutRule(t *testing.T) {
	srv, _ := faultTarget(t)
	inj := NewFaultInjector(nil, 1)
	client := &http.Client{Transport: inj}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"ok":true}` {
		t.Fatalf("body %q", body)
	}
}

func TestFaultInjectorDropAndFail(t *testing.T) {
	srv, host := faultTarget(t)
	inj := NewFaultInjector(nil, 1)
	client := &http.Client{Transport: inj}

	inj.Set(host, FaultRule{DropProb: 1})
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("drop rule did not error")
	}

	inj.Set(host, FaultRule{FailProb: 1, FailStatus: 502})
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("status %d, want injected 502", resp.StatusCode)
	}

	// Clear restores normal traffic.
	inj.Clear(host)
	resp2, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("post-clear status %d", resp2.StatusCode)
	}
}

func TestFaultInjectorCorruptBreaksJSON(t *testing.T) {
	srv, host := faultTarget(t)
	inj := NewFaultInjector(nil, 1)
	inj.Set(host, FaultRule{CorruptProb: 1})
	client := &http.Client{Transport: inj}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) == 0 || body[0] == '{' {
		t.Fatalf("corrupt rule returned plausible JSON: %q", body)
	}
}

func TestFaultInjectorDelayUsesClock(t *testing.T) {
	srv, host := faultTarget(t)
	fc := NewFakeClock(time.Unix(0, 0))
	fc.SetAutoAdvance(true)
	inj := NewFaultInjector(nil, 1)
	inj.SetClock(fc)
	inj.Set(host, FaultRule{DelayProb: 1, Delay: time.Hour})
	client := &http.Client{Transport: inj}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := fc.Now(); got != time.Unix(0, 0).Add(time.Hour) {
		t.Fatalf("delay did not consume fake time: clock at %v", got)
	}
}

func TestFaultInjectorBlackholeHonorsContext(t *testing.T) {
	srv, host := faultTarget(t)
	inj := NewFaultInjector(nil, 1)
	inj.Set(host, FaultRule{Blackhole: true})
	client := &http.Client{Transport: inj}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("blackhole returned a response")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("blackhole ignored the context deadline")
	}
}

func TestFaultInjectorDeterministicUnderSeed(t *testing.T) {
	// Same seed, same request sequence → same injected outcomes.
	outcomes := func(seed int64) []bool {
		srv, host := faultTarget(t)
		inj := NewFaultInjector(nil, seed)
		inj.Set(host, FaultRule{DropProb: 0.5})
		client := &http.Client{Transport: inj}
		var out []bool
		for i := 0; i < 30; i++ {
			resp, err := client.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := outcomes(99), outcomes(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged under the same seed", i)
		}
	}
}
