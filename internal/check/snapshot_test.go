package check_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"shapesol/internal/check"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// midrunExplorer freezes an n=64 haltProto exploration mid-run: with 64
// reachable configurations and a CheckEvery of 16, the cancel lands
// strictly between the root and the final frontier.
func midrunExplorer(t *testing.T, cancelAt int64) (*check.Explorer[string], check.Result) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := check.New(64, haltProto{}, check.Options{
		CheckEvery: 16,
		Progress: func(expanded int64) {
			if expanded >= cancelAt {
				cancel()
			}
		},
	})
	res := e.RunContext(ctx)
	return e, res
}

func TestMementoResumeByteIdentical(t *testing.T) {
	// Freeze an exploration strictly mid-run.
	a, res := midrunExplorer(t, 16)
	if res.Reason != check.ReasonCanceled {
		t.Fatalf("reason = %v, want canceled (mid-run)", res.Reason)
	}
	if a.Complete() {
		t.Fatalf("exploration completed before the freeze; enlarge the space")
	}

	// Round-trip the memento through the snapshot codec, as the job layer
	// does.
	m := a.Memento()
	blob, err := snap.EncodeState(m)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	var m2 check.Memento[string]
	if err := snap.DecodeState(blob, &m2); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}

	b := check.New(64, haltProto{}, check.Options{CheckEvery: 16})
	if err := b.RestoreMemento(&m2); err != nil {
		t.Fatalf("RestoreMemento: %v", err)
	}
	if b.Expanded() != a.Expanded() || b.Configs() != a.Configs() {
		t.Fatalf("restored cursor %d/%d, want %d/%d", b.Expanded(), b.Configs(), a.Expanded(), a.Configs())
	}

	// Drive both the original and the restored exploration to completion:
	// results, verdicts and the final serialized state must be identical.
	resA, resB := a.Run(), b.Run()
	if resA != resB {
		t.Fatalf("results diverged: %+v vs %+v", resA, resB)
	}
	if resA.Reason != check.ReasonExplored {
		t.Fatalf("resumed run did not complete: %+v", resA)
	}
	vA, vB := a.Verdict(nil), b.Verdict(nil)
	if !reflect.DeepEqual(vA, vB) {
		t.Fatalf("verdicts diverged:\n%+v\n%+v", vA, vB)
	}
	finalA, err := snap.EncodeState(a.Memento())
	if err != nil {
		t.Fatalf("EncodeState(final a): %v", err)
	}
	finalB, err := snap.EncodeState(b.Memento())
	if err != nil {
		t.Fatalf("EncodeState(final b): %v", err)
	}
	if !bytes.Equal(finalA, finalB) {
		t.Fatalf("final exploration states are not byte-identical (%d vs %d bytes)", len(finalA), len(finalB))
	}
}

func TestRestoreMementoValidation(t *testing.T) {
	a, _ := midrunExplorer(t, 16)
	m := a.Memento()

	// Population mismatch.
	if err := check.New(32, haltProto{}, check.Options{}).RestoreMemento(m); err == nil {
		t.Fatalf("restore into a different population accepted")
	}

	// Profile-presence mismatch: the veto set shapes the graph, so a
	// profile-less memento must not restore into a profiled explorer.
	p := check.New(64, haltProto{}, check.Options{})
	if err := p.ApplyProfile(sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 50}); err != nil {
		t.Fatalf("ApplyProfile: %v", err)
	}
	if err := p.RestoreMemento(m); err == nil {
		t.Fatalf("profile-less memento restored into a profiled explorer")
	}
}
