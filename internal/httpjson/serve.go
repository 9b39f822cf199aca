package httpjson

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"
)

// NewLogger resolves a -log flag: "text" or "json" records written to
// w, or no logger for "off".
func NewLogger(mode string, w io.Writer) (*slog.Logger, error) {
	switch strings.ToLower(mode) {
	case "off", "none", "":
		return nil, nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log mode %q (want text, json or off)", mode)
	}
}

// shutdownGrace bounds the drain of in-flight requests on a signal.
const shutdownGrace = 10 * time.Second

// Serve listens on addr, prints banner to stderr and serves h until the
// listener fails or the process gets SIGINT or SIGTERM. On a signal it
// prints "<name>: shutting down", stops accepting and drains the
// requests in flight for up to 10 s; a failed drain is printed, not
// returned. The error returned is the listener's.
func Serve(name, addr string, h http.Handler, banner string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintln(os.Stderr, banner)

	select {
	case err := <-errc: // before a signal, Serve returns only when the listener fails
		return err
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "%s: shutting down\n", name)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
		}
		return nil
	}
}

// WaitHealthy polls each base URL's /healthz until every one has
// answered 200, or fails naming those that had not within budget, so a
// client or a router can be started in the same breath as its servers.
func WaitHealthy(client *http.Client, budget time.Duration, bases ...string) error {
	deadline := time.Now().Add(budget)
	pending := slices.Clone(bases)
	for {
		pending = slices.DeleteFunc(pending, func(base string) bool {
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				return false
			}
			_ = resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
		if len(pending) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %s: %s", budget, strings.Join(pending, ", "))
		}
		time.Sleep(100 * time.Millisecond)
	}
}
