package eval

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"pharmaverify/internal/checkpoint"
	"pharmaverify/internal/ml"
)

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCrossValidateCheckpointReplay checks that a second run with the
// same inputs and key replays every fold from the journal — no trainer
// call at all — and yields a result identical to the first.
func TestCrossValidateCheckpointReplay(t *testing.T) {
	ds := imbalancedDataset(120, 24, 31)
	store := openStore(t)
	opt := CVOptions{Checkpoint: store, CheckpointKey: "replay/k3/seed7"}

	ref, err := CrossValidateCtx(context.Background(), ds, 3, 7, func() ml.Classifier { return &meanClassifier{} }, nil, opt)
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	counting := func() ml.Classifier {
		calls.Add(1)
		return &meanClassifier{}
	}
	replayed, err := CrossValidateCtx(context.Background(), ds, 3, 7, counting, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("replay trained %d folds, want 0", n)
	}
	if !reflect.DeepEqual(ref, replayed) {
		t.Error("replayed CVResult differs from the original run")
	}
}

// TestCrossValidateCheckpointResume interrupts a CV run after the first
// folds are journaled, then resumes: only the unfinished folds train,
// and the result matches an uninterrupted, checkpoint-free run —
// including with an RNG-consuming sampler, whose pre-draw stream must
// be replayed in full on resume.
func TestCrossValidateCheckpointResume(t *testing.T) {
	ds := imbalancedDataset(150, 30, 32)
	trainer := func() ml.Classifier { return &meanClassifier{} }
	want, err := CrossValidateCtx(context.Background(), ds, 3, 9, trainer, jitterOversample, CVOptions{})
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	opt := CVOptions{Workers: 1, Checkpoint: store, CheckpointKey: "resume/k3/seed9"}

	// Sequential run that cancels itself inside the second fold's
	// training: fold 0 and fold 1 reach the journal, fold 2 is never
	// dispatched.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fits atomic.Int64
	tripwire := func() ml.Classifier {
		if fits.Add(1) == 2 {
			cancel()
		}
		return &meanClassifier{}
	}
	_, err = CrossValidateCtx(ctx, ds, 3, 9, tripwire, jitterOversample, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted CV: err = %v, want context.Canceled", err)
	}
	if done := store.Count("fold"); done != 2 {
		t.Fatalf("journaled %d folds before resume, want 2", done)
	}

	var resumedFits atomic.Int64
	counting := func() ml.Classifier {
		resumedFits.Add(1)
		return &meanClassifier{}
	}
	got, err := CrossValidateCtx(context.Background(), ds, 3, 9, counting, jitterOversample, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := resumedFits.Load(); n != 1 {
		t.Errorf("resume trained %d folds, want only the 1 unfinished one", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed CVResult differs from an uninterrupted checkpoint-free run")
	}
}

// TestCrossValidateCtxCancelNoCheckpoint pins the plain cancellation
// path: without a store, a cancelled CV surfaces ctx's error.
func TestCrossValidateCtxCancelNoCheckpoint(t *testing.T) {
	ds := imbalancedDataset(90, 18, 33)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CrossValidateCtx(ctx, ds, 3, 5, func() ml.Classifier { return &meanClassifier{} }, nil, CVOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
