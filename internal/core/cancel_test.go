package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// pollCancelCtx is a context that reports itself canceled from its polls-th
// Done() call on, so a test cancels an analysis at a chosen context poll
// with no timing involved. The engine polls from one goroutine.
type pollCancelCtx struct {
	context.Context
	polls int
	done  chan struct{}
}

func newPollCancelCtx(polls int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), polls: polls, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.polls--
	if c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelInLaneDrain cancels an analysis on a context poll inside the
// lane drain. The entry block's branch spawns lanes with a budget that
// outlasts a chain of 300 small branches, so the first drain pops several
// hundred blocks before the sweep takes its second step: the third poll
// (sweep step 0, then drain pops 0 and ctxCheckInterval) lands in the drain.
func TestCancelInLaneDrain(t *testing.T) {
	src := "int a[64]; int p; int main() { reg int tmp; tmp = 0;" +
		strings.Repeat(" if (p == 0) { tmp = a[1]; }", 300) + " return tmp; }"
	prog := compile(t, src)
	opts := DefaultOptions()
	opts.DynamicDepthBounding = false
	opts.DepthMiss = 1 << 20
	e, err := prepare(prog, opts, dataCache)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.run(newPollCancelCtx(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if e.iter != 1 || e.lanePops != ctxCheckInterval {
		t.Fatalf("canceled after %d sweep steps and %d lane pops, want 1 and %d", e.iter, e.lanePops, ctxCheckInterval)
	}
	res, err := AnalyzeContext(newPollCancelCtx(3), prog, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got result %v and error %v, want no result and context.Canceled", res != nil, err)
	}
}
