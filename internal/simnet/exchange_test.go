package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// Typed messages: get charges the small-message default, put its data.
type getReq struct {
	Small
	Key string
	N   int
}

type putReq struct {
	Key  string
	Data []byte
}

func (r putReq) WireSize() int { return 16 + len(r.Data) }

// plainReq is getReq without a size: what an untyped Call charges the
// default for.
type plainReq struct {
	Key string
	N   int
}

// A typed exchange on the virtual clock allocates nothing, local or
// remote: neither request nor response is converted to an interface.
func TestExchangeAllocatesNothing(t *testing.T) {
	_, a, b := pairNet(t, Config{Latency: time.Millisecond, Clock: vtime.NewVirtual()}, stats.NewSet())
	data := make([]byte, 100)
	for _, e := range []*Endpoint{a, b} {
		Serve(e, "get", func(_ SiteID, req getReq) (putReq, error) {
			return putReq{Key: req.Key, Data: data[:req.N]}, nil
		})
	}
	for _, to := range []SiteID{1, 2} {
		call := func() {
			resp, err := Exchange[putReq](a, to, "get", getReq{Key: "k", N: 64})
			if err != nil || len(resp.Data) != 64 {
				t.Fatalf("exchange with %v = %d bytes, %v", to, len(resp.Data), err)
			}
		}
		call() // the first call creates the link handles
		if got := testing.AllocsPerRun(200, call); got != 0 {
			t.Errorf("%v allocations per exchange with %v, want 0", got, to)
		}
	}
}

// A typed exchange charges the wire exactly what Call charges for the same
// payload: its WireSize if it has one, else the small-message default.
func TestExchangeChargesLikeCall(t *testing.T) {
	charges := func(st *stats.Set) [4]int64 {
		return [4]int64{st.Get(stats.RPCs), st.Get(stats.MsgsSent), st.Get(stats.BytesSent), st.Get(stats.Instructions)}
	}
	data := []byte("twenty-four bytes of it.")

	untyped := stats.NewSet()
	_, a, b := pairNet(t, Config{}, untyped)
	b.Handle("put", func(_ SiteID, req any) (any, error) { return req, nil })
	b.Handle("get", func(_ SiteID, req any) (any, error) { return req, nil })
	if _, err := a.Call(2, "put", putReq{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(2, "get", plainReq{Key: "k"}); err != nil {
		t.Fatal(err)
	}

	typed := stats.NewSet()
	_, a, b = pairNet(t, Config{}, typed)
	Serve(b, "put", func(_ SiteID, req putReq) (putReq, error) { return req, nil })
	Serve(b, "get", func(_ SiteID, req getReq) (getReq, error) { return req, nil })
	if _, err := Exchange[putReq](a, 2, "put", putReq{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	if _, err := Exchange[getReq](a, 2, "get", getReq{Key: "k"}); err != nil {
		t.Fatal(err)
	}

	want := int64(2*(16+len(data)) + 2*smallMsgBytes)
	if got := typed.Get(stats.BytesSent); got != want {
		t.Fatalf("typed BytesSent = %d, want %d", got, want)
	}
	if u, ty := charges(untyped), charges(typed); u != ty {
		t.Fatalf("Call charged (rpcs, msgs, bytes, instructions) %v, Exchange %v", u, ty)
	}
}

// Each registration is reachable both ways: an untyped Call reaches a
// typed handler, and a payload of the wrong type is refused, not
// misread; an Exchange on types an op was not registered with is refused.
func TestExchangeAndCallShareRoutes(t *testing.T) {
	_, a, b := pairNet(t, Config{}, nil)
	Serve(b, "get", func(_ SiteID, req getReq) (putReq, error) { return putReq{Key: req.Key}, nil })
	b.Handle("echo", func(_ SiteID, req any) (any, error) { return req, nil })

	resp, err := a.Call(2, "get", getReq{Key: "k"})
	if err != nil || resp.(putReq).Key != "k" {
		t.Fatalf("untyped call of a typed op = %v, %v", resp, err)
	}
	if _, err := a.Call(2, "get", "k"); !errors.Is(err, ErrNoHandler) || !errors.As(err, new(*RemoteError)) {
		t.Fatalf("untyped call with a wrong payload: %v, want a remote ErrNoHandler", err)
	}
	if _, err := Exchange[putReq](a, 2, "echo", getReq{Key: "k"}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("typed exchange of an untyped op: %v, want ErrNoHandler", err)
	}
	if _, err := Exchange[getReq](a, 2, "get", getReq{Key: "k"}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("typed exchange with the wrong response type: %v, want ErrNoHandler", err)
	}
}
